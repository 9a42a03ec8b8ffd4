// Command guoqlint runs the repo's two static-analysis layers.
//
// Usage:
//
//	guoqlint [dir ...]        lint Go sources under each dir (default .)
//	guoqlint -rules [-seed N] check rule libraries and gate sets instead
//
// Without -rules, guoqlint walks the given directories (a trailing /...
// is accepted and ignored — walking is always recursive) and applies the
// internal/analysis/golint analyzers: hotpath allocation hygiene for
// functions marked //guoq:hotpath, context threading, and mutex-guard
// discipline for fields documented `guarded by mu`. One line per
// diagnostic goes to stdout; any diagnostic makes the exit status 1.
// Suppress a deliberate violation with a
// //guoqlint:ignore <analyzer> <reason> comment on or above the line.
//
// With -rules, guoqlint instead audits the domain artifacts: every
// built-in rewrite-rule library and gate set is checked for metadata
// soundness (declared halo depths and wire extents against independent
// recomputation plus randomized probe circuits), unitary equivalence,
// replacement nativeness, duplicate/subsumed rules, and error-model
// sanity. Findings print one per line; Warning or Error findings make
// the exit status 1 (Info findings are reported but don't fail).
//
// CI runs both modes; see .github/workflows/ci.yml.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/guoq-dev/guoq/internal/analysis"
	"github.com/guoq-dev/guoq/internal/analysis/golint"
)

func main() {
	rules := flag.Bool("rules", false, "check rule libraries and gate sets instead of Go sources")
	seed := flag.Int64("seed", 1, "probe-circuit seed for -rules")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: guoqlint [dir ...]\n       guoqlint -rules [-seed N]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *rules {
		os.Exit(runRules(*seed))
	}
	os.Exit(runLint(flag.Args()))
}

func runLint(dirs []string) int {
	if len(dirs) == 0 {
		dirs = []string{"."}
	}
	bad := false
	for _, dir := range dirs {
		// Accept go-style ./... arguments; RunDir always recurses.
		dir = strings.TrimSuffix(dir, "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
		diags, err := golint.RunDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "guoqlint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			fmt.Println(d)
			bad = true
		}
	}
	if bad {
		return 1
	}
	return 0
}

func runRules(seed int64) int {
	findings := analysis.CheckAll(analysis.Options{Seed: seed})
	analysis.Sort(findings)
	for _, f := range findings {
		fmt.Println(f)
	}
	if !analysis.Clean(findings) {
		return 1
	}
	return 0
}
