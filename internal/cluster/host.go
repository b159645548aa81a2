package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"time"

	"dkcore/internal/chaos"
	"dkcore/internal/core"
	"dkcore/internal/transport"
)

// Dial retry/backoff knobs: attempts back off exponentially from the
// floor to the cap, each jittered to half-to-full value so a fleet of
// hosts started together does not re-dial in lockstep.
const (
	dialBackoffFloor = 25 * time.Millisecond
	dialBackoffCap   = 2 * time.Second
	defaultDialWait  = 10 * time.Second
)

// HostConfig configures a host worker.
type HostConfig struct {
	// CoordinatorAddr is the coordinator's TCP address.
	CoordinatorAddr string
	// DialTimeout bounds one dial attempt. 0 means 10s.
	DialTimeout time.Duration
	// RetryWait is how long the host keeps retrying transient failures
	// — a coordinator not yet listening, a connection reset mid-run —
	// with capped exponential backoff and jitter before giving up,
	// measured from the last successful connection (or from start). 0,
	// the default, disables retry entirely: the first failure is final,
	// the long-standing one-shot behavior. A reconnecting host enrolls
	// as a fresh joiner, so mid-run retry only helps a coordinator
	// running with a RejoinWait budget to restore it.
	RetryWait time.Duration
	// FrameTimeout bounds each frame send and each wait for the next
	// frame on the coordinator connection. 0 disables deadlines.
	// Choose it above the longest legitimate quiet period — a full
	// round's compute plus the coordinator's RejoinWait, during which a
	// healthy host hears nothing.
	FrameTimeout time.Duration
	// Dialer overrides how the coordinator connection is established;
	// nil means a net.Dialer with DialTimeout. Chaos tests inject
	// fault-wrapped connections here.
	Dialer func(ctx context.Context, network, addr string) (net.Conn, error)
	// Clock is the time source for retry backoff; nil means the wall
	// clock. Chaos tests substitute a chaos.FakeClock.
	Clock chaos.Clock
	// Log receives structured runtime events (restores, reshapes).
	// nil discards them.
	Log *slog.Logger
}

// HostResult reports one host worker's share of a networked run — the
// per-host counterpart of the coordinator's Result, so the cluster path
// returns structured metrics like every other execution path.
type HostResult struct {
	// HostID is the identity the coordinator assigned this worker.
	HostID int
	// Coreness maps each owned node to its final coreness estimate.
	Coreness map[int]int
	// Rounds is the number of coordinator-driven rounds this host served.
	Rounds int
	// BatchesSent is the number of estimate batches shipped to peer hosts.
	BatchesSent int64
	// BatchesApplied is the number of peer batches applied locally
	// (including batches replayed during a restore).
	BatchesApplied int64
	// EstimatesSent is the number of (node, estimate) pairs shipped to
	// peers — this host's share of the Figure-5 overhead numerator.
	EstimatesSent int64
}

// RunHost dials the coordinator and serves one protocol session:
// handshake, configuration, restore, then ticks until stopped. It
// returns after shipping the final result frame. Cancelling ctx tears
// the connection down promptly and returns ctx.Err(). With a RetryWait
// budget, transient failures — dialing before the coordinator listens,
// losing the connection mid-run — are retried under capped exponential
// backoff with jitter; the re-enrolled worker is restored by the
// coordinator from its checkpoint and replay log, so a retried session
// resumes rather than restarts the protocol.
func RunHost(ctx context.Context, cfg HostConfig) (*HostResult, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = chaos.Wall{}
	}
	backoff := dialBackoffFloor
	deadline := clock.Now().Add(cfg.RetryWait)
	for {
		res, connected, err := runHost(ctx, cfg)
		if err == nil {
			return res, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if cfg.RetryWait <= 0 || !isTransient(err) {
			return res, err
		}
		if connected {
			// Real progress was made; a fresh failure gets a fresh budget.
			deadline = clock.Now().Add(cfg.RetryWait)
			backoff = dialBackoffFloor
		}
		wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		if clock.Now().Add(wait).After(deadline) {
			return nil, fmt.Errorf("cluster: no coordinator session within %v: %w", cfg.RetryWait, err)
		}
		if serr := clock.Sleep(ctx, wait); serr != nil {
			return nil, serr
		}
		backoff = min(backoff*2, dialBackoffCap)
	}
}

// isTransient classifies a session failure: connection-level faults
// (refused dials, resets, timeouts, torn frames) are worth retrying,
// while protocol-level failures (version mismatch, hostile frames,
// decode errors) are final no matter how long the retry budget is.
func isTransient(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, chaos.ErrTripped) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// hostRun is a host worker's session state.
type hostRun struct {
	conn *transport.Conn
	log  *slog.Logger

	id        int
	numHosts  int
	baseHosts int
	numNodes  int
	overrides map[int]int

	// Current partition CSR; replaced wholesale at each reshape.
	owned   []int
	adjOff  []int
	adjFlat []int

	state   *core.HostState
	res     *HostResult
	stopped bool // final result shipped; the session is over

	doneBuf []byte
	encBuf  []byte
}

// owner is the host's view of the ownership function: the base modulo
// policy plus the override table accumulated by membership changes.
func (h *hostRun) owner(u int) int {
	if hostID, ok := h.overrides[u]; ok {
		return hostID
	}
	return u % h.baseHosts
}

// runHost runs one session attempt. connected reports whether the dial
// succeeded — the retry loop's signal that the coordinator is reachable
// and a failure deserves a fresh budget.
func runHost(ctx context.Context, cfg HostConfig) (res *HostResult, connected bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	log := cfg.Log
	if log == nil {
		log = slog.New(discardHandler{})
	}
	dial := cfg.Dialer
	if dial == nil {
		timeout := cfg.DialTimeout
		if timeout <= 0 {
			timeout = defaultDialWait
		}
		d := &net.Dialer{Timeout: timeout}
		dial = d.DialContext
	}
	raw, err := dial(ctx, "tcp", cfg.CoordinatorAddr)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: %w", err)
	}
	conn := transport.NewConn(raw)
	if cfg.FrameTimeout > 0 {
		conn.SetTimeouts(cfg.FrameTimeout, cfg.FrameTimeout)
	}
	defer conn.Close()
	stopWatch := context.AfterFunc(ctx, func() { conn.Close() })
	defer stopWatch()

	h := &hostRun{conn: conn, log: log, res: &HostResult{}}
	if err := h.handshake(); err != nil {
		return nil, true, err
	}
	if err := h.configure(); err != nil {
		return nil, true, err
	}
	if err := h.restore(); err != nil {
		return nil, true, err
	}
	if err := conn.Send(frameReady, nil); err != nil {
		return nil, true, fmt.Errorf("cluster: ready: %w", err)
	}
	if err := h.serve(); err != nil {
		return nil, true, err
	}
	return h.res, true, nil
}

func (h *hostRun) handshake() error {
	hello := helloMsg{Version: protocolVersion, Flags: flagFlate}
	if err := h.conn.Send(frameHello, encodeHello(hello)); err != nil {
		return fmt.Errorf("cluster: hello: %w", err)
	}
	typ, payload, err := h.conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: welcome: %w", err)
	}
	if typ != frameWelcome {
		return fmt.Errorf("cluster: coordinator sent frame %d, want welcome", typ)
	}
	welcome, err := decodeHello(payload)
	if err != nil {
		return fmt.Errorf("cluster: welcome: %w", err)
	}
	if welcome.Version != protocolVersion {
		return fmt.Errorf("cluster: coordinator speaks protocol %d, host speaks %d",
			welcome.Version, protocolVersion)
	}
	if welcome.Flags&flagFlate != 0 {
		h.conn.SetCompression(true)
	}
	return nil
}

func (h *hostRun) configure() error {
	typ, payload, err := h.conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: config: %w", err)
	}
	if typ != frameConfig {
		return fmt.Errorf("cluster: coordinator sent frame %d, want config", typ)
	}
	cfg, err := decodeConfig(payload)
	if err != nil {
		return fmt.Errorf("cluster: config: %w", err)
	}
	h.id = cfg.HostID
	h.numHosts = cfg.NumHosts
	h.baseHosts = cfg.BaseHosts
	h.numNodes = cfg.NumNodes
	h.overrides = make(map[int]int, len(cfg.OverrideNodes))
	for i, u := range cfg.OverrideNodes {
		h.overrides[u] = cfg.OverrideHosts[i]
	}
	h.owned = cfg.Owned
	h.adjOff = cfg.AdjOff
	h.adjFlat = cfg.AdjFlat
	h.res.HostID = cfg.HostID
	h.state = core.NewHostState(h.id, h.numNodes, h.owned, h.adjOff, h.adjFlat, h.owner)
	return nil
}

// restore rebuilds protocol state from the coordinator's restore frame:
// init, then the checkpoint estimate vector (integrity-checked against
// its support histograms), then a replay of every batch delivered since.
// The estimates land on the exact checkpointed values because they are
// monotone non-increasing: init starts every node at least as high as
// any checkpointed value, and Apply lowers each to its saved estimate.
// All owned nodes stay marked changed, so the next collection re-ships
// the full border state — a fresh host must introduce itself, and a
// restarted one may hold drops its peers never saw.
func (h *hostRun) restore() error {
	typ, payload, err := h.conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: restore: %w", err)
	}
	if typ != frameRestore {
		return fmt.Errorf("cluster: coordinator sent frame %d, want restore", typ)
	}
	msg, err := decodeRestore(payload)
	if err != nil {
		return fmt.Errorf("cluster: restore: %w", err)
	}
	h.state.InitEstimates()
	if msg.Ckpt != nil {
		batch, err := transport.DecodeBatch(msg.Ckpt.Est)
		if err != nil {
			return fmt.Errorf("cluster: restore checkpoint: %w", err)
		}
		h.state.Apply(batch)
		if !h.state.VerifySupport(msg.Ckpt.Hist) {
			return fmt.Errorf("cluster: restored state diverges from round-%d checkpoint support histograms", msg.Ckpt.Round)
		}
	}
	for _, rb := range msg.Replay {
		batch, err := transport.DecodeBatch(rb.Raw)
		if err != nil {
			return fmt.Errorf("cluster: restore replay from host %d: %w", rb.Peer, err)
		}
		h.state.Apply(batch)
		h.res.BatchesApplied++
	}
	h.state.ImproveIfDirty()
	if msg.Ckpt != nil || len(msg.Replay) > 0 {
		ckptRound := 0
		if msg.Ckpt != nil {
			ckptRound = msg.Ckpt.Round
		}
		h.log.Info("state restored",
			"host", h.id, "checkpointRound", ckptRound, "replayedBatches", len(msg.Replay))
	}
	return nil
}

// serve processes ticks, reshapes, and the final stop.
func (h *hostRun) serve() error {
	for {
		typ, payload, err := h.conn.Recv()
		if err != nil {
			return fmt.Errorf("cluster: host %d lost coordinator (last round %d): %w",
				h.id, h.res.Rounds, err)
		}
		switch typ {
		case frameTick:
			err = h.tick(payload)
		case frameReshape:
			// A reshape may end with this host retiring (stop instead of
			// seed), in which case sendResult marks the session over.
			err = h.reshape(payload)
		case frameStop:
			err = h.sendResult()
		default:
			err = fmt.Errorf("cluster: coordinator sent unexpected frame %d", typ)
		}
		if err != nil {
			return err
		}
		if h.stopped {
			return nil
		}
	}
}

func (h *hostRun) tick(payload []byte) error {
	msg, err := decodeTick(payload)
	if err != nil {
		return fmt.Errorf("cluster: tick: %w", err)
	}
	for _, rb := range msg.Batches {
		batch, err := transport.DecodeBatch(rb.Raw)
		if err != nil {
			return fmt.Errorf("cluster: tick batch from host %d: %w", rb.Peer, err)
		}
		h.state.Apply(batch)
		h.res.BatchesApplied++
	}
	h.state.ImproveIfDirty()
	out := h.state.CollectPointToPoint()

	rep := doneReport{Round: msg.Round}
	relays := make([]relayBatch, 0, len(out))
	for _, peer := range h.state.NeighborHosts() {
		batch := out[peer]
		if len(batch) == 0 {
			continue
		}
		relays = append(relays, relayBatch{Peer: peer, Raw: transport.AppendBatch(nil, batch)})
		rep.Changed += len(batch)
		h.res.BatchesSent++
		h.res.EstimatesSent += int64(len(batch))
	}
	rep.SentTotal = h.res.BatchesSent
	rep.AppliedTotal = h.res.BatchesApplied
	rep.PairsTotal = h.res.EstimatesSent
	h.res.Rounds = msg.Round

	if msg.Checkpoint {
		if err := h.sendCheckpoint(msg.Round); err != nil {
			return err
		}
	}
	h.doneBuf = appendDone(h.doneBuf[:0], rep, relays)
	if err := h.conn.Send(frameDone, h.doneBuf); err != nil {
		return fmt.Errorf("cluster: done for round %d: %w", msg.Round, err)
	}
	return nil
}

func (h *hostRun) sendCheckpoint(round int) error {
	est := h.state.ExportEstimates(nil)
	h.encBuf = transport.AppendBatch(h.encBuf[:0], est)
	hist := h.state.ExportSupport(nil)
	ck := checkpointMsg{Round: round, Est: h.encBuf, Hist: hist}
	h.doneBuf = appendCheckpoint(h.doneBuf[:0], ck)
	if err := h.conn.Send(frameCheckpoint, h.doneBuf); err != nil {
		return fmt.Errorf("cluster: checkpoint for round %d: %w", round, err)
	}
	return nil
}

// reshape applies a membership change: export the authoritative
// estimates of the moved-out nodes, wait for the seed of the moved-in
// nodes, and rebuild partition state around the new ownership table.
// After the rebuild only the refresh-rule nodes — owned nodes that
// moved in or that border a moved node — are marked for shipping: the
// new owners need their estimates, and everything else is already
// common knowledge.
func (h *hostRun) reshape(payload []byte) error {
	msg, err := decodeReshape(payload, h.numNodes)
	if err != nil {
		return fmt.Errorf("cluster: reshape: %w", err)
	}
	// Export before any mutation: these values are what the coordinator
	// forwards to the new owners.
	var ack core.Batch
	movedSet := make(map[int]int, len(msg.Moves))
	for _, mv := range msg.Moves {
		movedSet[mv.Node] = mv.Host
	}
	movedOut := make(map[int]bool)
	for _, u := range h.owned {
		if newHost, ok := movedSet[u]; ok && newHost != h.id {
			e, tracked := h.state.Estimate(u)
			if !tracked {
				return fmt.Errorf("cluster: reshape before init")
			}
			ack = append(ack, core.EstimateMsg{Node: u, Core: e})
			movedOut[u] = true
		}
	}
	exp := h.state.ExportEstimates(nil)

	h.numHosts = msg.NumHosts
	for _, mv := range msg.Moves {
		if mv.Host == mv.Node%h.baseHosts {
			delete(h.overrides, mv.Node)
		} else {
			h.overrides[mv.Node] = mv.Host
		}
	}
	h.encBuf = transport.AppendBatch(h.encBuf[:0], ack)
	if err := h.conn.Send(frameReshapeAck, h.encBuf); err != nil {
		return fmt.Errorf("cluster: reshape-ack: %w", err)
	}

	typ, payload, err := h.conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: awaiting seed: %w", err)
	}
	switch typ {
	case frameStop:
		// This host is the one leaving; its (empty) result is a formality.
		return h.sendResult()
	case frameSeed:
	default:
		return fmt.Errorf("cluster: coordinator sent frame %d, want seed", typ)
	}
	seeds, err := decodeSeed(payload, h.numNodes)
	if err != nil {
		return fmt.Errorf("cluster: seed: %w", err)
	}
	h.rebuild(movedOut, seeds, exp)
	h.markRefresh(movedSet)
	h.log.Info("partition reshaped",
		"host", h.id, "numHosts", h.numHosts, "movedOut", len(movedOut), "movedIn", len(seeds))
	if err := h.conn.Send(frameReady, nil); err != nil {
		return fmt.Errorf("cluster: ready after reshape: %w", err)
	}
	return nil
}

// rebuild merges the current CSR (minus moved-out rows) with the seeded
// rows (disjoint, both sorted) and reconstructs protocol state: init,
// re-apply the pre-reshape export, apply the seeded estimates, and
// clear the blanket changed marks. No Improve runs here — Apply leaves
// the dirty flag raised, so the next tick's ImproveIfDirty performs the
// cascade and marks any genuine drops for shipping; improving now would
// mark-and-clear drops the peers have never seen.
func (h *hostRun) rebuild(movedOut map[int]bool, seeds []seedEntry, exp core.Batch) {
	rows := len(h.owned) - len(movedOut) + len(seeds)
	owned := make([]int, 0, rows)
	adjOff := make([]int, 1, rows+1)
	var adjFlat []int
	emit := func(u int, neighbors []int) {
		owned = append(owned, u)
		adjFlat = append(adjFlat, neighbors...)
		adjOff = append(adjOff, len(adjFlat))
	}
	si := 0
	for i, u := range h.owned {
		for si < len(seeds) && seeds[si].Node < u {
			emit(seeds[si].Node, seeds[si].Neighbors)
			si++
		}
		if movedOut[u] {
			continue
		}
		emit(u, h.adjFlat[h.adjOff[i]:h.adjOff[i+1]])
	}
	for ; si < len(seeds); si++ {
		emit(seeds[si].Node, seeds[si].Neighbors)
	}
	h.owned, h.adjOff, h.adjFlat = owned, adjOff, adjFlat

	seedBatch := make(core.Batch, len(seeds))
	for i, e := range seeds {
		seedBatch[i] = core.EstimateMsg{Node: e.Node, Core: e.Est}
	}
	h.state = core.NewHostState(h.id, h.numNodes, h.owned, h.adjOff, h.adjFlat, h.owner)
	h.state.InitEstimates()
	h.state.Apply(exp)
	h.state.Apply(seedBatch)
	h.state.ResetChanged()
}

// markRefresh marks and enqueues every owned node that moved in or that
// borders a moved node. Shipping these re-establishes the only border
// knowledge a move can invalidate: every stale external pair is by
// construction adjacent to a moved node.
func (h *hostRun) markRefresh(movedSet map[int]int) {
	for i, u := range h.owned {
		refresh := false
		if _, ok := movedSet[u]; ok {
			refresh = true
		} else {
			for _, v := range h.adjFlat[h.adjOff[i]:h.adjOff[i+1]] {
				if _, ok := movedSet[v]; ok {
					refresh = true
					break
				}
			}
		}
		if refresh {
			h.state.MarkNodeChanged(u)
			h.state.EnqueueNode(u)
		}
	}
}

func (h *hostRun) sendResult() error {
	coreness := make(map[int]int, len(h.owned))
	batch := make(core.Batch, 0, len(h.owned))
	for _, u := range h.owned {
		e, ok := h.state.Estimate(u)
		if !ok {
			return fmt.Errorf("cluster: result before init")
		}
		coreness[u] = e
		batch = append(batch, core.EstimateMsg{Node: u, Core: e})
	}
	h.encBuf = transport.AppendBatch(h.encBuf[:0], batch)
	if err := h.conn.Send(frameResult, h.encBuf); err != nil {
		return fmt.Errorf("cluster: result: %w", err)
	}
	h.res.Coreness = coreness
	h.stopped = true
	return nil
}
