// Pregelrun: the deployment path the paper's conclusions (§6) propose —
// the k-core protocol as a vertex program on a Pregel-style BSP engine.
// Vertices start active, broadcast their degree in superstep 0, vote to
// halt, and are reactivated only when a neighbor's estimate drops; the
// framework stops when every vertex is halted and no messages are in
// flight. The superstep count matches the simulator's round count order
// of magnitude, and the result is exact.
package main

import (
	"context"
	"fmt"
	"log"

	"dkcore"
)

func main() {
	eng, err := dkcore.NewEngine(dkcore.Pregel)
	if err != nil {
		log.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *dkcore.Graph
	}{
		{"social (Barabási–Albert)", dkcore.GenerateBarabasiAlbert(30000, 4, 7)},
		{"overlay (G(n,m))", dkcore.GenerateGNM(30000, 70000, 7)},
		{"road (grid)", dkcore.GenerateGrid(170, 170)},
		{"worst case (Fig. 3)", dkcore.GenerateWorstCase(512)},
	} {
		truth := dkcore.Decompose(tc.g).CorenessValues()
		rep, err := eng.Run(context.Background(), tc.g)
		if err != nil {
			log.Fatal(err)
		}
		exact := true
		for u := range truth {
			if rep.Coreness[u] != truth[u] {
				exact = false
				break
			}
		}
		fmt.Printf("%-28s %6d nodes  %4d supersteps  exact=%v\n",
			tc.name, tc.g.NumNodes(), rep.Rounds, exact)
	}
}
