package main

import (
	"fmt"
	"math/rand"

	"dkcore/internal/dataset"
	"dkcore/internal/gen"
	"dkcore/internal/graph"
)

// loadGenerators is the number of concurrent load sources every leg
// uses: parallel workers, cluster hosts, client connections. It is the
// nproc of the box the bounds were sized on, fixed so that numbers from
// different machines stay comparable; it is not scaled to the machine.
const loadGenerators = 2

// deployment names the way a workload reaches exact coreness in a timed
// leg.
type deployment int

const (
	// depParallel is dkcore.NewEngine(Parallel, Workers(2)) + Run.
	depParallel deployment = iota
	// depCluster is a cluster coordinator plus two hosts over loopback TCP.
	depCluster
	// depClusterFlate is depCluster with negotiated flate frames.
	depClusterFlate
	// depOOCoreTight is oocore.Decompose under a budget far below the
	// resident cascade state, so blocks are evicted and reloaded.
	depOOCoreTight
	// depOOCoreFit is oocore.Decompose under a budget nothing is evicted from.
	depOOCoreFit
	// depMutateWait ships a burst of edge events through the binary
	// protocol with wait=true: one epoch per event.
	depMutateWait
	// depMutateCoalesced ships a larger burst with wait=false followed by a
	// one-event waited barrier: the session's batching path.
	depMutateCoalesced
)

func (d deployment) String() string {
	return [...]string{"parallel", "cluster", "cluster_flate", "oocore_tight", "oocore_fit", "mutate_wait", "mutate_coalesced"}[d]
}

// Burst sizes of the two serve deployments at scale 1, in edge events.
const (
	waitBurstEvents      = 16
	coalescedBurstEvents = 4096
)

// burstEvents returns how many events one burst of a serve deployment
// carries; smoke tests shrink the coalesced burst with everything else.
func burstEvents(d deployment, scale float64) int {
	if d == depMutateWait {
		return waitBurstEvents
	}
	return scaledN(coalescedBurstEvents, scale, 256)
}

// Out-of-core knobs at scale 1. 4096-node blocks split the spill graph
// into 15 blocks; 8 MiB holds about a third of their resident cascade
// state, 256 MiB all of it.
const (
	spillBlockSize   = 4096
	spillTightBudget = 8 << 20
	spillFitBudget   = 256 << 20
)

// workloadSpec is one named scenario: a graph made from the seed, the
// deployment under test (exact_s), the deployment it is contrasted with
// on the same input (exact_alt_s), and the churn that runs beside the
// read leg.
type workloadSpec struct {
	name string
	why  string
	// base builds the workload's graph family at a generator seed; scale
	// shrinks it for smoke tests. input derives a run's graph from it.
	base  func(genSeed int64, scale float64) *graph.Graph
	exact deployment
	alt   deployment
	// altShare is the part of the batch window the contrast leg gets,
	// in tenths, sized so that both legs get about as many reps.
	altShare int
	// churnEvents is the length of the edge-event stream set-up writes;
	// churnPerSec is the rate at which it is enqueued beside the read leg.
	churnEvents int
	churnPerSec float64
}

func scaledN(n int, scale float64, floor int) int {
	if s := int(float64(n) * scale); s > floor {
		return s
	}
	return floor
}

// baseSeed is the generator seed of every workload's graph, and
// seedEdges how many random edges a run's seed adds to it. The seed
// perturbs the input, it does not redraw it: redrawn, the tight
// out-of-core leg took 878 to 1,400 passes (1.5 to 2.6 s) over six seeds
// — the program's sensitivity to its input, which would drown a change
// of the bound's size — while perturbed it stays within 3 passes. The
// churn stream and the read order are drawn from the seed itself.
const (
	baseSeed  = 1
	seedEdges = 16
)

// input returns the graph of one run: the workload's base graph plus
// seedEdges random edges drawn from seed.
func (w workloadSpec) input(seed int64, scale float64) *graph.Graph {
	g := w.base(baseSeed, scale)
	b := graph.NewBuilder(g.NumNodes())
	g.Edges(func(u, v int) bool {
		b.AddEdge(u, v)
		return true
	})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < seedEdges; i++ {
		b.AddEdge(rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes()))
	}
	return b.Build()
}

func powerLaw(n int) func(int64, float64) *graph.Graph {
	return func(seed int64, scale float64) *graph.Graph {
		return gen.PowerLaw(gen.PowerLawConfig{N: scaledN(n, scale, 400), Exponent: 2.2, MinDeg: 3}, seed)
	}
}

func berkstan(seed int64, scale float64) *graph.Graph {
	d, err := dataset.ByKey("berkstan")
	if err != nil {
		panic(fmt.Sprintf("benchmark: dataset registry lost berkstan: %v", err))
	}
	return d.Build(5*scale, seed)
}

// workloads lists the four scenarios in the order BENCHMARK.json names
// them. README.md holds the sizing evidence.
var workloads = []workloadSpec{
	{
		name:     "skew",
		why:      "power-law 300k nodes/1.5M edges: ~50 rounds, 465k estimates, hubs of degree ~550; per-estimate work (cascade, exchange, batch codec) is the cost, per-round overhead is noise",
		base:     powerLaw(300000),
		exact:    depParallel,
		alt:      depCluster,
		altShare: 3,
	},
	{
		name:     "deep",
		why:      "berkstan analogue 340k nodes/447k edges with long filaments: ~2,400 cluster rounds of tiny frames; relay round trip, barrier and per-frame cost are all of the time, bytes are noise",
		base:     berkstan,
		exact:    depCluster,
		alt:      depClusterFlate,
		altShare: 5,
	},
	{
		name:     "spill",
		why:      "power-law 60k nodes/273k edges in 15 spilled blocks: an 8 MiB budget evicts and reloads (read amplification ~14x), 256 MiB never evicts; only here do oocore and the CSR codec do the work",
		base:     powerLaw(60000),
		exact:    depOOCoreTight,
		alt:      depOOCoreFit,
		altShare: 2,
	},
	{
		name:        "serve",
		why:         "power-law 50k nodes/224k edges behind one Session and Server on loopback: reads beside light churn, then waited and coalesced mutation bursts; only here do serve, Session and Maintainer do the work",
		base:        powerLaw(50000),
		exact:       depMutateWait,
		alt:         depMutateCoalesced,
		churnEvents: 150000,
		churnPerSec: 10,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
