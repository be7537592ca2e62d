// Command hpas-lint runs the project's static-analysis suite: the
// custom analyzers in internal/analysis that enforce this repository's
// correctness invariants — substrate determinism, loop cancellation,
// lock hygiene, durable-write error handling, wire-struct discipline,
// goroutine boundedness, resource release, and the shard membership
// protocol. See DESIGN.md, "Static analysis".
//
// Usage:
//
//	go run ./cmd/hpas-lint ./...        # whole module (the CI entry point)
//	go run ./cmd/hpas-lint -list        # print the analyzers
//	go run ./cmd/hpas-lint -run locksafe ./...
//	go run ./cmd/hpas-lint -json ./...           # machine-readable findings
//	go run ./cmd/hpas-lint -github ./...         # GitHub Actions annotations
//	go run ./cmd/hpas-lint -unused-allows ./...  # stale-suppression audit
//
// Findings print as file:line:col diagnostics and the exit status is 1;
// a clean tree exits 0. Intentional exceptions are annotated in the
// source as `//lint:allow <analyzer> <reason>` — the reason is
// mandatory, and a directive without one is itself a finding. The
// -unused-allows audit inverts the check: it reports directives that no
// longer suppress anything, so dead exceptions cannot silently mask a
// future regression at the same line.
//
// The tool is stdlib-only: it parses and type-checks the module from
// source (go/parser + go/types + go/importer's source mode), so it
// needs no compiled export data and adds no module dependencies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hpas/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	github := flag.Bool("github", false, "emit findings as GitHub Actions error annotations")
	unusedAllows := flag.Bool("unused-allows", false, "report //lint:allow directives that suppress nothing")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hpas-lint [-list] [-run analyzers] [-json|-github] [-unused-allows] [./... | packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.Analyzers()
	if *run != "" {
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*run, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "hpas-lint: unknown analyzer %q (see -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpas-lint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hpas-lint:", err)
		os.Exit(2)
	}
	pkgs = filterPackages(pkgs, loader.Module, flag.Args())

	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "hpas-lint: %s: %v\n", pkg.Path, terr)
			broken = true
		}
	}
	if broken {
		os.Exit(2) // a tree that does not type-check cannot be linted
	}

	var diags []analysis.Diagnostic
	if *unusedAllows {
		diags = analysis.UnusedAllows(pkgs, analyzers)
	} else {
		diags = analysis.Run(pkgs, analyzers)
	}
	cwd, _ := os.Getwd()
	for i := range diags {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].Pos.Filename = rel
			}
		}
	}

	switch {
	case *jsonOut:
		writeJSON(diags)
	case *github:
		writeGitHub(diags)
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hpas-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is the stable machine-readable finding shape.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func writeJSON(diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "hpas-lint:", err)
		os.Exit(2)
	}
}

// writeGitHub emits one workflow command per finding; GitHub's runner
// turns them into inline PR annotations. Newlines and the %-escapes the
// command grammar reserves must be encoded.
func writeGitHub(diags []analysis.Diagnostic) {
	for _, d := range diags {
		fmt.Printf("::error file=%s,line=%d,col=%d,title=hpas-lint/%s::%s\n",
			d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, githubEscape(d.Message))
	}
}

func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// filterPackages restricts the loaded module to the requested patterns.
// Supported: no args or "./..." (everything), "./dir/..." (subtree),
// and "./dir" or an import path (single package).
func filterPackages(pkgs []*analysis.Package, module string, patterns []string) []*analysis.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	keep := func(p *analysis.Package) bool {
		for _, pat := range patterns {
			if pat == "./..." || pat == "..." || pat == "all" {
				return true
			}
			pat = strings.TrimPrefix(pat, "./")
			rec := strings.HasSuffix(pat, "/...")
			pat = strings.TrimSuffix(pat, "/...")
			path := pat
			if !strings.HasPrefix(pat, module) {
				path = module + "/" + pat
			}
			if p.Path == path || (rec && strings.HasPrefix(p.Path, path+"/")) {
				return true
			}
		}
		return false
	}
	var out []*analysis.Package
	for _, p := range pkgs {
		if keep(p) {
			out = append(out, p)
		}
	}
	return out
}
