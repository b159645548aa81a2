// Partitioned: the one-to-many scenario (§3.2). A graph too large for one
// machine is split across hosts with the paper's modulo assignment; each
// host runs the protocol on behalf of its nodes and ships batched
// estimate updates. The example contrasts the two dissemination policies
// of §3.2.1 — a broadcast medium versus point-to-point messages — on a
// sweep of host counts, a miniature of the paper's Figure 5.
package main

import (
	"context"
	"fmt"
	"log"

	"dkcore"
)

func main() {
	g := dkcore.GenerateBarabasiAlbert(20000, 4, 11)
	truth := dkcore.Decompose(g).CorenessValues()
	fmt.Printf("graph: %d nodes, %d edges\n\n", g.NumNodes(), g.NumEdges())
	fmt.Println("hosts  policy         rounds  estimates/node")

	for _, hosts := range []int{2, 8, 32, 128} {
		for _, policy := range []struct {
			name string
			mode dkcore.Dissemination
		}{
			{"broadcast", dkcore.Broadcast},
			{"point-to-point", dkcore.PointToPoint},
		} {
			eng, err := dkcore.NewEngine(dkcore.OneToMany,
				dkcore.Hosts(hosts), dkcore.DisseminationPolicy(policy.mode))
			if err != nil {
				log.Fatal(err)
			}
			res, err := eng.Run(context.Background(), g)
			if err != nil {
				log.Fatal(err)
			}
			for u := range truth {
				if res.Coreness[u] != truth[u] {
					log.Fatalf("hosts=%d %s: wrong coreness at node %d", hosts, policy.name, u)
				}
			}
			fmt.Printf("%5d  %-14s %6d  %14.3f\n",
				hosts, policy.name, res.ExecutionTime,
				float64(res.EstimatesSent)/float64(g.NumNodes()))
		}
	}
	fmt.Println("\nevery configuration reproduced the exact decomposition;")
	fmt.Println("broadcast overhead stays low while point-to-point grows with hosts (Figure 5)")
}
