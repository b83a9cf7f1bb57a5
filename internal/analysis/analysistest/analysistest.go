// Package analysistest runs the custom analyzers over source fixtures
// and checks the findings against `// want "regexp"` annotations,
// mirroring golang.org/x/tools/go/analysis/analysistest on the
// stdlib-only framework in internal/analysis.
//
// A want annotation attaches to the line it appears on: the analyzer
// must report a diagnostic on that line whose message matches the
// regexp. Several annotations on one line demand several diagnostics.
// Lines without annotations must stay silent — both directions are
// test failures, so fixtures pin false negatives and false positives
// alike. Allow comments (//lint:allow, //lint:file-allow) are honored
// exactly as in seemore-vet, so a violating line carrying a documented
// allow and no want annotation proves the escape hatch suppresses. A
// want annotation may also trail another comment on its line, so an
// allow comment can expect a finding of its own:
//
//	//lint:allow nosuchcheck fixture // want `names no analyzer`
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads the fixture package at <testdata>/src/<path>, applies the
// analyzer, and reports every mismatch between produced diagnostics
// and want annotations as a test error.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, path string) {
	t.Helper()
	pkg, err := analysis.LoadFixture(filepath.Join(testdata, "src"), path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, path, err)
	}
	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if !wants.match(d) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
	}
}

// want is one expectation: a diagnostic on file:line matching re.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

type wantSet struct {
	wants []*want
}

// collectWants parses every `// want "re" "re"...` annotation in the
// fixture package. Patterns are ordinary Go string literals (quoted or
// backquoted) holding regexps.
func collectWants(pkg *analysis.Package) (*wantSet, error) {
	ws := &wantSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, rest, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest = strings.TrimSpace(rest)
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						return nil, fmt.Errorf("%s: malformed want annotation %q", pos, c.Text)
					}
					pat, err := strconv.Unquote(q)
					if err != nil {
						return nil, fmt.Errorf("%s: malformed want pattern %s", pos, q)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: want pattern %s: %v", pos, q, err)
					}
					ws.wants = append(ws.wants, &want{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return ws, nil
}

// match consumes the first unconsumed expectation on the diagnostic's
// line whose pattern matches its message.
func (ws *wantSet) match(d analysis.Diagnostic) bool {
	for _, w := range ws.wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.wants {
		if !w.hit {
			out = append(out, w)
		}
	}
	return out
}
