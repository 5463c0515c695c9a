// Command experiments regenerates every table and figure of the paper's
// evaluation section against the simulator substrate.
//
// Usage:
//
//	experiments [-exp all|table1|fig6|fig10|fig11|fig12|fig13|fig14|fig15|errors] [-md]
//
// With -md the output is the full EXPERIMENTS.md document (paper-reported
// values next to measured ones); the committed copy at the repository root
// is checked against it by this package's test.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"hadoop2perf/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	exp := flag.String("exp", "all", "experiment id (all, table1, fig6, fig10..fig15, errors)")
	md := flag.Bool("md", false, "emit the full EXPERIMENTS.md document")
	flag.Parse()

	if *md {
		if err := writeMarkdown(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*exp); err != nil {
		log.Fatal(err)
	}
}

func run(exp string) error {
	switch exp {
	case "table1":
		return runTable1()
	case "fig6":
		return runFig6()
	case "errors":
		figs, err := runAllFigures(nil)
		if err != nil {
			return err
		}
		printBands(figs)
		return nil
	case "all":
		if err := runTable1(); err != nil {
			return err
		}
		if err := runFig6(); err != nil {
			return err
		}
		figs, err := runAllFigures(os.Stdout)
		if err != nil {
			return err
		}
		printBands(figs)
		return nil
	default:
		for _, s := range bench.FigureSpecs() {
			if s.ID == exp {
				fig, err := bench.RunFigure(s)
				if err != nil {
					return err
				}
				fmt.Println(fig.Format())
				return nil
			}
		}
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func runTable1() error {
	t, err := bench.Table1()
	if err != nil {
		return err
	}
	fmt.Println("### Table 1 — ResourceRequest object (n=3, m=4, r=1)")
	fmt.Println()
	fmt.Println(t)
	return nil
}

func runFig6() error {
	tl, tree, err := bench.RunningExample()
	if err != nil {
		return err
	}
	fmt.Println("### Figures 6/7 — running-example timeline and precedence tree")
	fmt.Println()
	fmt.Print(bench.FormatTimeline(tl))
	fmt.Printf("precedence tree: %s (depth %d, %d leaves)\n\n",
		tree, tree.Depth(), tree.NumLeaves())
	return nil
}

func runAllFigures(w io.Writer) ([]bench.Figure, error) {
	var figs []bench.Figure
	for _, s := range bench.FigureSpecs() {
		fmt.Fprintf(os.Stderr, "running %s (%s)...\n", s.ID, s.Title)
		fig, err := bench.RunFigure(s)
		if err != nil {
			return nil, err
		}
		figs = append(figs, fig)
		if w != nil {
			fmt.Fprintln(w, fig.Format())
		}
	}
	return figs, nil
}

func printBands(figs []bench.Figure) {
	b := bench.Bands(figs)
	fmt.Println("### Error bands (paper §5.2)")
	fmt.Println()
	fmt.Printf("fork/join |err|: %.1f%% – %.1f%% (paper: 11%% – 13.5%%), overestimates %d/%d points\n",
		100*b.FJMin, 100*b.FJMax, b.FJOver, b.Total)
	fmt.Printf("tripathi  |err|: %.1f%% – %.1f%% (paper: 19%% – 23%%), overestimates %d/%d points\n",
		100*b.TPMin, 100*b.TPMax, b.TPOver, b.Total)
}

func writeMarkdown(w io.Writer) error {
	figs, err := runAllFigures(nil)
	if err != nil {
		return err
	}
	t1, err := bench.Table1()
	if err != nil {
		return err
	}
	tl, tree, err := bench.RunningExample()
	if err != nil {
		return err
	}
	b := bench.Bands(figs)

	fmt.Fprint(w, header)
	fmt.Fprintln(w, "## Table 1 — ResourceRequest object (running example)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Paper: map containers grouped per primary-replica node at priority 20,")
	fmt.Fprintln(w, "reduce containers with the `*` wildcard at priority 10. Reproduced:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, t1)
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "## Figures 6/7 — running-example timeline and precedence tree")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, bench.FormatTimeline(tl))
	fmt.Fprintf(w, "tree: %s\n", tree)
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)
	for i, fig := range figs {
		fmt.Fprintln(w, fig.Format())
		fmt.Fprintln(w, figureCommentary[i])
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "## Error bands (paper §5.2 headline result)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "| estimator | paper |err| band | measured |err| band | overestimates |\n")
	fmt.Fprintf(w, "|---|---|---|---|\n")
	fmt.Fprintf(w, "| Fork/join | 11%% – 13.5%% | %.1f%% – %.1f%% | %d/%d points |\n",
		100*b.FJMin, 100*b.FJMax, b.FJOver, b.Total)
	fmt.Fprintf(w, "| Tripathi  | 19%% – 23%%  | %.1f%% – %.1f%% | %d/%d points |\n",
		100*b.TPMin, 100*b.TPMax, b.TPOver, b.Total)
	fmt.Fprint(w, footer)
	return nil
}

var header = strings.TrimLeft(`
# EXPERIMENTS — paper vs. measured

Generated by 'go run ./cmd/experiments -md'. The "HadoopSetup" series is the
discrete-event YARN simulator (internal/mrsim) standing in for the authors'
4–8 node Hadoop 2.x cluster; absolute seconds therefore differ from the
paper, but the curve shapes, the estimator ranking and the error bands are
the reproduction targets (see DESIGN.md §2).

`, "\n")

var figureCommentary = []string{
	"Paper shape: response falls from ~70s to ~48s as nodes grow; both model\nvariants above the measured curve, fork/join closer. Reproduced: same\nmonotone decline and ordering.",
	"Paper shape: 4 concurrent jobs at ~4x the single-job response, declining\nwith nodes. Reproduced: concurrent interference raises response ~2x here\n(container-rich cluster), declining with nodes, model above measurement.",
	"Paper shape: ~5x the 1 GB response, declining with nodes (more waves on\nfewer nodes). Reproduced: same decline; fork/join within its band.",
	"Paper shape: heaviest configuration (~1300s at 4 nodes), steep decline\nwith nodes. Reproduced: same steep decline, model above measurement.",
	"Paper shape: roughly linear growth in the number of concurrent jobs.\nReproduced: monotone, near-linear growth; overestimation grows with N as\nthe model assumes rigid fair shares.",
	"Paper shape: halving the block size doubles the map count and raises the\nestimation error (deeper precedence tree): 17%/25% vs 13.5%/23%.\nPartially reproduced: the precedence tree deepens as in the paper, but the\nerror stays roughly flat vs fig12 — our model sees per-task startup and\nscheduling overheads explicitly (they are part of the calibrated profile),\nwhereas on the authors' real cluster those grew invisibly with task count.",
}

var footer = `
## Reading the result

Who wins: the Tripathi estimate sits above the fork/join estimate at every
point, so wherever the model overestimates (the common case, as in the
paper), fork/join is the more accurate variant — the paper's ranking. Both
overestimate at the large majority of points and in the mean, matching the
paper's "with both approaches we overestimate the execution time".

Known deviation: at 6-node configurations the model *under*estimates
(worst: -25% for fig11, -15% for fig15). Cause: Algorithm 1's timeline is
deterministic — map waves start and end in lockstep — while the simulated
(and real) cluster backfills freed containers continuously, so straggling
waves keep per-node concurrency at the container limit longer than the
synchronized timeline predicts. The effect is largest exactly when the
slot count divides the map count unevenly (40 or 80 maps on 48 slots at 6
nodes). At those points both estimators drop below the measurement
together, so the fork/join-vs-Tripathi ordering of *absolute* error flips
there. The calibration guard (internal/bench TestErrorBands) encodes the
measured bands with this deviation allowed.

Caveats: the multi-job points (figs 11/13/14) otherwise overestimate more
than the paper's 13.5% because the model assumes rigid 1/N fair container
shares while the simulated scheduler is work-conserving; see DESIGN.md §4
for the modeling decisions.
`
