// Command bzlint runs the repository's static analyzers (internal/lint)
// over the given package patterns.
//
//	go run ./cmd/bzlint ./...                 # whole tree (what `make lint` runs)
//	go run ./cmd/bzlint ./internal/wsn        # one package
//	go run ./cmd/bzlint -hints ./internal/... # with suggested rewrites
//
// The suite is four analyzers: determinism, hotpath, floateq, and
// mutroute, plus the stale-waiver report.
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on a
// load or type-check failure. The analyzers and the directive syntax
// (//bzlint:ordered, //bzlint:allow, //bzlint:hotpath, //bzlint:mutsetter,
// //bzlint:mutroute) are documented in DESIGN.md §7 "Static invariants",
// which also names the tests that took over the retired analyzers' jobs.
package main

import (
	"flag"
	"fmt"
	"os"

	"bubblezero/internal/lint"
)

func main() {
	hints := flag.Bool("hints", false, "print a suggested rewrite under each diagnostic (make lint-fix-hints)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: bzlint [-hints] [packages]\n\npackages default to ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bzlint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bzlint:", err)
		os.Exit(2)
	}
	diags := lint.Run(loader.Fset, pkgs, lint.DefaultConfig())
	for _, d := range diags {
		fmt.Println(d)
		if *hints && d.Hint != "" {
			fmt.Println("    hint:", d.Hint)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "bzlint: %d diagnostic(s) in %d package(s); run `make lint-fix-hints` for suggested rewrites\n",
			len(diags), len(pkgs))
		os.Exit(1)
	}
}
