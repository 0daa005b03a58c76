package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The mutroute analyzer pins the single-route mutation invariant: every
// mutation of a running fleet flows through fleet.Apply(Event) (epoch
// boundary drain + journal, DESIGN.md §10), never through direct setter
// calls that would bypass the journal and break snapshot replay.
//
// Setters declare themselves with
//
//	//bzlint:mutsetter <route>
//
// and a call to a declared setter is legal only from:
//
//   - the setter's own package (construction, restore, and the batch
//     plumbing live next to the state they mutate);
//   - another setter on the same route;
//   - a function annotated //bzlint:mutroute <route> <reason> — the
//     audited members of the route (fleet.Apply's internals, validated
//     constructors);
//   - a _test.go file (never loaded by the analyzer);
//   - a //bzlint:allow mutroute <reason> waived call site.
//
// Everything else is a finding whose hint points at the route name.
func runMutroute(pkgs []*Package, passes map[*Package]*pass) {
	const an = "mutroute"

	// Pass 1: collect setter declarations and route members.
	setterRoute := map[string]string{} // types.Func.FullName → route
	setterPkg := map[string]*Package{}
	memberRoute := map[string]map[string]bool{} // FullName → routes it belongs to
	addMember := func(full, route string) {
		if memberRoute[full] == nil {
			memberRoute[full] = map[string]bool{}
		}
		memberRoute[full][route] = true
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				for _, args := range declDirectives(fd.Doc, "mutsetter") {
					setterRoute[obj.FullName()] = args[0]
					setterPkg[obj.FullName()] = pkg
					addMember(obj.FullName(), args[0])
				}
				for _, args := range declDirectives(fd.Doc, "mutroute") {
					addMember(obj.FullName(), args[0])
				}
			}
		}
	}
	if len(setterRoute) == 0 {
		return
	}

	// Pass 2: audit every static call site of a declared setter.
	for _, pkg := range pkgs {
		p := passes[pkg]
		for _, f := range pkg.Files {
			// Enclosing-function lookup by position range.
			var fns []*ast.FuncDecl
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					fns = append(fns, fd)
				}
			}
			enclosing := func(pos token.Pos) *ast.FuncDecl {
				for _, fd := range fns {
					if pos >= fd.Pos() && pos < fd.End() {
						return fd
					}
				}
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil {
					return true
				}
				route, isSetter := setterRoute[fn.FullName()]
				if !isSetter {
					return true
				}
				if pkg == setterPkg[fn.FullName()] {
					return true // in-package: construction and restore plumbing
				}
				if fd := enclosing(call.Pos()); fd != nil {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok &&
						memberRoute[obj.FullName()][route] {
						return true
					}
				}
				p.report(f, call.Pos(), an,
					fmt.Sprintf("call to %s bypasses mutation route %s", fn.FullName(), route),
					fmt.Sprintf("mutate through %s, or annotate an audited constructor //bzlint:mutroute %s <reason>", route, route))
				return true
			})
		}
	}
}
