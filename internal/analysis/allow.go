package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// The escape hatch for deliberate invariant exceptions:
//
//	//lint:allow <analyzer> <reason>
//
// suppresses that analyzer's findings on the same line or the line
// directly below (so the comment can sit on its own line above the
// offending statement), and
//
//	//lint:file-allow <analyzer> <reason>
//
// suppresses the analyzer for the whole file — the idiom for files
// whose entire job is exempt (the wall-clock benchmarking harness, the
// real-time network emulator). The reason is mandatory: an allow
// without one is ignored, so the finding it meant to silence still
// fails the build and points at the undocumented exception. An allow
// must name an analyzer of the suite (All): one that names any other is
// itself a finding, so an exemption cannot outlive the analyzer it was
// written for.

type allowKey struct {
	file     string
	line     int
	analyzer string
}

type allowSet struct {
	lines   map[allowKey]bool
	files   map[string]map[string]bool // filename -> analyzer -> allowed
	unknown []Diagnostic               // allows naming no analyzer of the suite
}

// collectAllows scans every comment in files for allow annotations.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	s := &allowSet{lines: map[allowKey]bool{}, files: map[string]map[string]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				fileWide := false
				switch {
				case strings.HasPrefix(text, "lint:allow "):
					text = strings.TrimPrefix(text, "lint:allow ")
				case strings.HasPrefix(text, "lint:file-allow "):
					text = strings.TrimPrefix(text, "lint:file-allow ")
					fileWide = true
				default:
					continue
				}
				analyzer, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
				pos := fset.Position(c.Pos())
				if _, err := ByName([]string{analyzer}); err != nil {
					s.unknown = append(s.unknown, Diagnostic{
						Analyzer: "lint:allow",
						Pos:      pos,
						Message:  fmt.Sprintf("allow names no analyzer of the suite: %q", analyzer),
					})
					continue
				}
				if strings.TrimSpace(reason) == "" {
					continue // reason is mandatory; an undocumented allow allows nothing
				}
				if fileWide {
					m := s.files[pos.Filename]
					if m == nil {
						m = map[string]bool{}
						s.files[pos.Filename] = m
					}
					m[analyzer] = true
					continue
				}
				// The annotation covers its own line (trailing comment)
				// and the next line (comment above the statement).
				s.lines[allowKey{pos.Filename, pos.Line, analyzer}] = true
				s.lines[allowKey{pos.Filename, pos.Line + 1, analyzer}] = true
			}
		}
	}
	return s
}

// filter drops diagnostics covered by an allow annotation.
func (s *allowSet) filter(diags []Diagnostic) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		if s.files[d.Pos.Filename][d.Analyzer] {
			continue
		}
		if s.lines[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
