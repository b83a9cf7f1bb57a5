package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named invariant check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis.Analyzer so the passes could migrate
// to the upstream framework wholesale if the dependency ever lands.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //lint:allow
	// comments.
	Name string
	// Doc is a one-paragraph description of the invariant the pass
	// enforces.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// inspect walks every file in the pass with ast.Inspect.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// pkgFunc resolves a call expression to the *types.Func it invokes
// (package-level function or method, through interfaces too), or nil
// for builtins, conversions and indirect calls through plain function
// values.
func (p *Pass) pkgFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.TypesInfo.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f // method call
			}
			return nil
		}
		// Qualified package call: pkg.Fn.
		if f, ok := p.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// importedPkg reports whether expr is a reference to an imported
// package (a *types.PkgName use) and returns its import path.
func (p *Pass) importedPkg(expr ast.Expr) (string, bool) {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

// Run type-checks nothing itself: it applies each analyzer to the
// already-loaded package and returns the merged, allow-filtered,
// position-sorted findings, led by every allow that names no analyzer
// of the suite.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows := collectAllows(pkg.Fset, pkg.Files)
	all := allows.unknown
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
		}
		all = append(all, allows.filter(pass.diags)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// All returns the full custom analyzer suite in the order the
// multichecker runs it.
func All() []*Analyzer {
	return []*Analyzer{Clockcheck, Simdet, Errsticky}
}

// ByName resolves a comma-separated analyzer name list against All.
func ByName(names []string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return out, nil
}
