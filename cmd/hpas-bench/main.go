// Command hpas-bench regenerates every table and figure of the paper's
// evaluation on the simulated cluster and prints them in paper order.
//
// Usage:
//
//	hpas-bench [-quick] [-only fig8,fig9]
//
// -quick shrinks run lengths and sweeps for a fast smoke pass; the
// default sizes match the paper's setups.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

import "hpas/internal/experiments"

func main() {
	quick := flag.Bool("quick", false, "shrink runs for a fast smoke pass")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	flag.Parse()

	var ids map[string]bool
	if *only != "" {
		ids = make(map[string]bool)
		for _, id := range strings.Split(*only, ",") {
			ids[strings.TrimSpace(id)] = true
		}
	}

	failed := false
	for _, e := range experiments.All() {
		if ids != nil && !ids[e.ID] {
			continue
		}
		start := time.Now()
		res, err := e.Run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Printf("== %s: %s (%.1fs) ==\n\n%s\n", e.ID, e.Title, time.Since(start).Seconds(), res.Render())
	}
	if failed {
		os.Exit(1)
	}
}
