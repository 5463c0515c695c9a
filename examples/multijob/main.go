// Multi-job interference: reproduce the paper's Figure 14 scenario — how
// does the average job response time degrade as 1..4 identical 5 GB jobs
// run concurrently on a 4-node cluster? This is where the queueing-network
// part of the model earns its keep: a static, contention-blind model would
// predict the same response for every N.
package main

import (
	"fmt"
	"log"

	"hadoop2perf"
)

func main() {
	log.SetFlags(0)
	const nodes = 4
	spec := hadoop2perf.DefaultCluster(nodes)
	job, err := hadoop2perf.NewJob(0, 5*1024, 128, nodes, hadoop2perf.WordCount())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("4-node cluster, N concurrent 5GB wordcount jobs (fair scheduling)\n\n")
	fmt.Println("N   simulated   fork/join      tripathi")
	for n := 1; n <= 4; n++ {
		cmp, err := hadoop2perf.Compare(spec, job, n, 1, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d  %8.1fs  %8.1fs (%+5.1f%%)  %8.1fs (%+5.1f%%)\n",
			n, cmp.Simulated,
			cmp.ForkJoin, 100*cmp.ForkJoinErr,
			cmp.Tripathi, 100*cmp.TripathiErr)
	}
	fmt.Println("\nthe response grows with N; the queueing-aware model tracks it")
}
