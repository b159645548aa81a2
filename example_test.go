package dkcore_test

import (
	"context"
	"fmt"

	"dkcore"
)

// ExampleNewEngine decomposes the paper's Figure-2 graph, built edge by
// edge, with the sharded shared-memory peel and prints the exact
// coreness of every node. The result is identical for any worker count.
func ExampleNewEngine() {
	b := dkcore.NewBuilder(0)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()

	eng, err := dkcore.NewEngine(dkcore.Parallel, dkcore.Workers(2))
	if err != nil {
		panic(err)
	}
	rep, err := eng.Run(context.Background(), g)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Coreness, rep.Workers)
	// Output: [1 2 2 2 2 1] 2
}

// ExampleEngine_Run decomposes the Figure-2 graph through the unified
// facade: the kind is the only thing that changes between execution
// paths.
func ExampleEngine_Run() {
	g := dkcore.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5},
	})
	eng, err := dkcore.NewEngine(dkcore.Parallel, dkcore.Workers(2))
	if err != nil {
		panic(err)
	}
	rep, err := eng.Run(context.Background(), g)
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Coreness)
	// Output: [1 2 2 2 2 1]
}

// ExampleSession serves coreness queries while the graph mutates: the
// decomposition stays exact after every insert and delete.
func ExampleSession() {
	g := dkcore.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5},
	})
	sess, err := dkcore.NewSession(context.Background(), g)
	if err != nil {
		panic(err)
	}
	fmt.Println(sess.Degeneracy(), sess.KCoreMembers(2))

	sess.InsertEdge(0, 5) // close the outer ring: everything becomes a 2-core
	fmt.Println(sess.Degeneracy(), sess.KCoreMembers(2))
	// Output:
	// 2 [1 2 3 4]
	// 2 [0 1 2 3 4 5]
}
