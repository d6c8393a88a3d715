// Command fishlint runs FishStore's repo-specific static analyzers
// (epochguard, atomicfield, errflow, puborder, hotalloc) over the given
// package patterns.
//
// Usage:
//
//	fishlint [flags] <package patterns>
//
//	-q        suppress the summary line
//	-tests    analyze _test.go files alongside production sources
//	-timing   print per-analyzer analysis time on stderr
//	-hotalloc-baseline file
//	          absorb hotalloc findings recorded in the committed baseline;
//	          only new allocations fail the run
//	-write-hotalloc-baseline file
//	          write the current hotalloc findings as the new baseline
//	          (run this after auditing them) and exit
//
// With -tests, packages are loaded in test mode: _test.go files (in-package
// and external) are analyzed alongside the production sources — test code
// takes epoch guards and reads shared words too, and a latch-free invariant
// violated only under test still deadlocks or corrupts CI.
//
// Exit codes: 0 — no findings; 1 — findings reported; 2 — usage or load
// error. Findings are suppressed by an inline
// `//lint:ignore <analyzer>[,<analyzer>] <justification>` on the finding's
// line or the line above it; a directive that is bare, names an unknown
// analyzer or suppresses nothing is itself a finding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fishstore/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("fishlint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	quiet := flags.Bool("q", false, "suppress the summary line")
	tests := flags.Bool("tests", false, "analyze _test.go files alongside production sources")
	timing := flags.Bool("timing", false, "print per-analyzer analysis time on stderr")
	baselinePath := flags.String("hotalloc-baseline", "", "baseline `file` of accepted hotalloc findings to absorb")
	writeBaseline := flags.String("write-hotalloc-baseline", "", "write current hotalloc findings to baseline `file` and exit")
	flags.Usage = func() {
		fmt.Fprintf(stderr, "usage: fishlint [flags] <package patterns>\n")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() == 0 {
		flags.Usage()
		return 2
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "fishlint: %v\n", err)
		return 2
	}
	pkgs, err := lint.LoadPkgs(lint.LoadConfig{Dir: dir, Tests: *tests}, flags.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "fishlint: %v\n", err)
		return 2
	}
	res := lint.Run(pkgs, lint.Analyzers())

	if *writeBaseline != "" {
		var hot []lint.Finding
		for _, f := range res.Findings {
			if f.Analyzer == "hotalloc" {
				hot = append(hot, f)
			}
		}
		if err := lint.NewBaseline(hot, dir).Write(*writeBaseline); err != nil {
			fmt.Fprintf(stderr, "fishlint: %v\n", err)
			return 2
		}
		if !*quiet {
			fmt.Fprintf(stderr, "fishlint: wrote %d hotalloc finding(s) to %s\n", len(hot), *writeBaseline)
		}
		return 0
	}
	if *baselinePath != "" {
		b, err := lint.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "fishlint: %v\n", err)
			return 2
		}
		lint.ApplyBaseline(&res, b, dir)
	}

	for _, f := range res.Findings {
		fmt.Fprintln(stdout, f)
	}
	if *timing {
		for _, t := range res.Timings {
			fmt.Fprintf(stderr, "fishlint: timing: %-12s %8.1fms  (%d pkgs)\n",
				t.Name, float64(t.Duration.Microseconds())/1000, t.Packages)
		}
	}
	if !*quiet {
		fmt.Fprintf(stderr, "fishlint: %d package(s), %d finding(s), %d suppressed, %d baselined\n",
			len(pkgs), len(res.Findings), res.Suppressed, res.Baselined)
	}
	if len(res.Findings) > 0 {
		return 1
	}
	return 0
}
