package meta

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The Makefile's CI-leg gates (warmcheck, shardcheck, servecheck) select
// their tests with -run regexes. A renamed test silently hollows out a
// gate: `go test -run NoSuchTest` exits zero having run nothing. This
// meta-test keeps every gate honest by asserting each |-alternative of
// every quoted -run pattern still matches at least one Test/Benchmark
// function in the packages the gate lists.

// funcRe extracts top-level test and benchmark function names.
var funcRe = regexp.MustCompile(`(?m)^func (Test\w*|Benchmark\w*)\b`)

// testNames collects the Test/Benchmark function names declared in dir.
func testNames(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range funcRe.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// joinContinuations folds backslash-continued Makefile lines into single
// logical lines so a -run pattern and its package list are seen together.
func joinContinuations(src string) []string {
	var out []string
	cur := ""
	for _, l := range strings.Split(src, "\n") {
		if strings.HasSuffix(l, "\\") {
			cur += strings.TrimSuffix(l, "\\") + " "
			continue
		}
		out = append(out, cur+l)
		cur = ""
	}
	return out
}

// TestGateRegexesMatchTests parses every quoted `-run '...'` pattern in
// the Makefile and verifies each alternative selects a real test in the
// gate's package list.
func TestGateRegexesMatchTests(t *testing.T) {
	raw, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	runRe := regexp.MustCompile(`-run '([^']+)'`)
	pkgRe := regexp.MustCompile(`\./[\w./-]+`)
	gates := 0
	for _, line := range joinContinuations(string(raw)) {
		m := runRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		gates++
		pkgs := pkgRe.FindAllString(line, -1)
		if len(pkgs) == 0 {
			t.Errorf("gate %q lists no packages", strings.TrimSpace(line))
			continue
		}
		var names []string
		for _, p := range pkgs {
			names = append(names, testNames(t, filepath.Join("../..", p))...)
		}
		if len(names) == 0 {
			t.Errorf("gate packages %v declare no tests at all", pkgs)
			continue
		}
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("gate regex term %q does not compile: %v", alt, err)
				continue
			}
			matched := false
			for _, n := range names {
				if re.MatchString(n) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("gate regex term %q matches no Test/Benchmark function in %v (renamed test? dead gate?)", alt, pkgs)
			}
		}
	}
	// warmcheck, shardcheck and servecheck each carry a quoted -run.
	if gates < 3 {
		t.Fatalf("found %d quoted -run gate(s) in the Makefile, want at least 3", gates)
	}
}
