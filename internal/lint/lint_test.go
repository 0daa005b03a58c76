package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"os"
)

// The golden-file tests type-check the fixture packages under
// testdata/src and compare the analyzer output against `// want` comments
// in the fixtures themselves: each backtick-quoted regexp on a line must
// match exactly one diagnostic reported for that line, and every
// diagnostic must be claimed by a want comment. Lines without a want
// comment are the negative cases — any diagnostic there fails the test.

// fixtureConfig mirrors DefaultConfig's shape over the fixture package
// names: sim and wsn are deterministic, floatcmp is float-compare
// checked. The hotpath and mutroute analyzers are unconditional.
func fixtureConfig() Config {
	return Config{
		Deterministic: map[string]bool{"sim": true, "wsn": true, "baddir": true},
		FloatEq:       map[string]bool{"floatcmp": true},
	}
}

// runFixture loads one testdata package and runs the full suite over it.
func runFixture(t *testing.T, name string) []Diagnostic {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.LoadDir(dir, "bzlint.test/"+name)
	if err != nil {
		t.Fatal(err)
	}
	return Run(l.Fset, []*Package{pkg}, fixtureConfig())
}

var wantRe = regexp.MustCompile("`([^`]*)`")

// checkGolden matches diagnostics against the want comments of one or
// more fixture directories (cross-package fixtures span two).
func checkGolden(t *testing.T, name string, diags []Diagnostic, moreNames ...string) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	expected := map[key][]*regexp.Regexp{}
	for _, n := range append([]string{name}, moreNames...) {
		dir := filepath.Join("testdata", "src", n)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			path := filepath.Join(dir, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				idx := strings.Index(line, "// want ")
				if idx < 0 {
					continue
				}
				k := key{path, i + 1}
				for _, m := range wantRe.FindAllStringSubmatch(line[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
					}
					expected[k] = append(expected[k], re)
				}
				if len(expected[k]) == 0 {
					t.Fatalf("%s:%d: want comment without a backtick-quoted pattern", path, i+1)
				}
			}
		}
	}

	unclaimed := map[key][]string{}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		unclaimed[k] = append(unclaimed[k], d.Message)
	}
	for k, res := range expected {
		for _, re := range res {
			found := -1
			for i, msg := range unclaimed[k] {
				if re.MatchString(msg) {
					found = i
					break
				}
			}
			if found < 0 {
				t.Errorf("%s:%d: no diagnostic matching %v (diagnostics on line: %q)",
					k.file, k.line, re, unclaimed[k])
				continue
			}
			unclaimed[k] = append(unclaimed[k][:found], unclaimed[k][found+1:]...)
		}
	}
	for k, msgs := range unclaimed {
		for _, msg := range msgs {
			t.Errorf("%s:%d: unexpected diagnostic %q", k.file, k.line, msg)
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	checkGolden(t, "sim", runFixture(t, "sim"))
}

func TestMapRangeGolden(t *testing.T) {
	checkGolden(t, "wsn", runFixture(t, "wsn"))
}

func TestHotpathGolden(t *testing.T) {
	checkGolden(t, "hot", runFixture(t, "hot"))
}

func TestFloatEqGolden(t *testing.T) {
	checkGolden(t, "floatcmp", runFixture(t, "floatcmp"))
}

// TestMutrouteGolden loads the setter and caller halves of the fixture
// as separate packages: the analyzer must see the cross-package call
// graph exactly as `make lint` sees the real tree.
func TestMutrouteGolden(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	set, err := l.LoadDir(filepath.Join("testdata", "src", "mutset"), "bzlint.test/mutset")
	if err != nil {
		t.Fatal(err)
	}
	call, err := l.LoadDir(filepath.Join("testdata", "src", "mutcall"), "bzlint.test/mutcall")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(l.Fset, []*Package{set, call}, fixtureConfig())
	checkGolden(t, "mutset", diags, "mutcall")
}

// TestStaleAllow pins the stale-waiver report: a consumed waiver is
// silent, an ordered waiver with no map range left and an allow waiver
// whose finding is gone are both reported. (The diagnostics land on the
// waivers' own comment lines, which a want comment cannot annotate
// without becoming part of the waiver reason, hence direct assertions.)
func TestStaleAllow(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "stale"), "bzlint.test/stale")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Deterministic: map[string]bool{"stale": true},
		FloatEq:       map[string]bool{"stale": true},
	}
	var stale []Diagnostic
	for _, d := range Run(l.Fset, []*Package{pkg}, cfg) {
		if d.Analyzer != "staleallow" {
			t.Errorf("unexpected non-staleallow diagnostic: %s", d)
			continue
		}
		stale = append(stale, d)
	}
	if len(stale) != 2 {
		t.Fatalf("got %d staleallow diagnostics %v, want 2", len(stale), stale)
	}
	if !strings.Contains(stale[0].Message, "//bzlint:ordered waiver suppresses no diagnostic") {
		t.Errorf("stale[0] = %q, want stale-ordered report", stale[0].Message)
	}
	if !strings.Contains(stale[1].Message, "//bzlint:allow floateq waiver suppresses no diagnostic") {
		t.Errorf("stale[1] = %q, want stale-allow report", stale[1].Message)
	}
}

// TestMalformedDirectives pins the meta-diagnostics: a waiver without a
// reason and an unknown directive verb — including the retired guards and
// holds verbs — are themselves reported, so a typo'd waiver cannot
// silently disable a check. (These land on the directive's own comment
// line, which a same-line want comment cannot annotate, hence the direct
// assertions.)
func TestMalformedDirectives(t *testing.T) {
	diags := runFixture(t, "baddir")
	var meta []string
	for _, d := range diags {
		if d.Analyzer == "bzlint" {
			meta = append(meta, d.Message)
		}
	}
	want := []string{
		"without a reason",
		`unknown bzlint directive "//bzlint:frobnicate`,
		`unknown bzlint directive "//bzlint:guards`,
		`unknown bzlint directive "//bzlint:holds`,
	}
	if len(meta) != len(want) {
		t.Fatalf("got %d meta-diagnostics %q, want %d", len(meta), meta, len(want))
	}
	for i, w := range want {
		if !strings.Contains(meta[i], w) {
			t.Errorf("meta[%d] = %q, want it to contain %q", i, meta[i], w)
		}
	}
	// The reasonless waiver must not suppress the map-range diagnostic.
	found := false
	for _, d := range diags {
		if d.Analyzer == "determinism" && strings.Contains(d.Message, "map iteration") {
			found = true
		}
	}
	if !found {
		t.Error("reasonless //bzlint:ordered suppressed the map-range diagnostic")
	}
}

// TestRepoTreeIsClean runs the suite over the real repository with the
// shipping config — the programmatic twin of `make lint`, so a stray
// violation fails `go test` even before CI reaches the lint target.
func TestRepoTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(l.Fset, pkgs, DefaultConfig()) {
		t.Errorf("%s", d)
	}
}
