package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden files")

// fixtures maps each analyzer to its violation package under testdata/.
// The synthetic import paths matter: determinism only fires inside
// substrate paths and apitags only inside api packages, so the fixtures
// are loaded under paths that put them in scope.
var fixtures = []struct {
	dir        string
	importPath string
	analyzer   *Analyzer
}{
	{"determinism", "fixture/internal/sim", AnalyzerDeterminism},
	{"ctxloop", "fixture/ctxloop", AnalyzerCtxloop},
	{"locksafe", "fixture/locksafe", AnalyzerLocksafe},
	{"erraudit", "fixture/erraudit", AnalyzerErraudit},
	{"apitags", "fixture/api", AnalyzerApitags},
	{"poolsafe", "fixture/poolsafe", AnalyzerPoolsafe},
	{"leaksafe", "fixture/leaksafe", AnalyzerLeaksafe},
	{"closesafe", "fixture/closesafe", AnalyzerClosesafe},
	{"epochguard", "fixture/internal/shard", AnalyzerEpochguard},
}

// TestFixtures runs each analyzer over its fixture package and compares
// the diagnostics, line by line, against the checked-in golden file.
// Regenerate with: go test ./internal/analysis -run TestFixtures -update
func TestFixtures(t *testing.T) {
	// One loader serves every fixture: its source importer type-checks
	// each standard-library package once, not once per fixture.
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures {
		t.Run(fx.analyzer.Name, func(t *testing.T) {
			pkg, err := loader.LoadDir(filepath.Join("testdata", fx.dir), fx.importPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("fixture does not type-check: %v", pkg.TypeErrors)
			}
			var got strings.Builder
			for _, d := range Run([]*Package{pkg}, []*Analyzer{fx.analyzer}) {
				fmt.Fprintf(&got, "%s:%d: %s: %s\n", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer, d.Message)
			}
			golden := filepath.Join("testdata", fx.dir, "expect.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got.String() != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got.String(), want)
			}
		})
	}
}

// TestRepoIsLintClean is the self-check: hpas-lint over the repository
// itself must be silent. A PR that introduces a violation either fixes
// it or documents it with a reasoned //lint:allow — this test (and the
// CI lint job) is what makes that stick.
func TestRepoIsLintClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: %v", pkg.Path, terr)
		}
	}
	if t.Failed() {
		t.Fatal("module does not type-check; lint results would be unreliable")
	}
	for _, d := range Run(pkgs, Analyzers()) {
		t.Errorf("%s", d)
	}
}
