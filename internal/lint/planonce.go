package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// PlanOnce checks that once-guarded cache fields stay once-guarded.
//
// The rule is self-calibrating: for every struct in the package that
// declares a sync.Once field, the analyzer first learns which sibling
// fields are assigned inside a `<once field>.Do(func() {...})` closure
// anywhere in the package — those are the struct's cache fields. It
// then flags every assignment to such a field that happens OUTSIDE a
// Do closure. A field either is a once-published memo or it is not;
// mixing guarded and unguarded writes is exactly the race the
// invariant exists to prevent (datalog.Program's strata/plan/split/
// mono memos and plan.Plan's schedule slots are shared by every worker
// goroutine of the parallel runtime).
//
// The same rule applies at package level: for every package-level
// sync.Once variable, package-level variables assigned inside its
// `<onceVar>.Do(func() {...})` closure are once-published defaults,
// and assignments to them outside a Do closure are flagged. No
// package-level once-published default exists in the tree today; the
// package-level fixture keeps the rule pinned for the next one.
//
// The check is syntactic (no type information): fields are matched by
// name within the set of structs that carry a sync.Once field, and
// package-level variables by name against the file-scope var
// declarations. That is precise enough for this repo and keeps the
// linter dependency-free.
func PlanOnce() *Analyzer {
	return &Analyzer{
		Name: "planonce",
		Doc:  "cache fields written under sync.Once.Do must never be written outside it",
		Run:  runPlanOnce,
	}
}

func runPlanOnce(p *Pkg) []Diagnostic {
	// Pass 1: structs with sync.Once fields → their once-field names
	// and full field-name sets.
	onceFields := map[string]bool{} // names of fields whose type is sync.Once
	cacheOwner := map[string]bool{} // field names that MAY be caches (siblings of a once field)
	for _, f := range p.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			var once, others []string
			for _, fld := range st.Fields.List {
				isOnce := isSyncOnce(fld.Type)
				for _, name := range fld.Names {
					if isOnce {
						once = append(once, name.Name)
					} else {
						others = append(others, name.Name)
					}
				}
			}
			if len(once) == 0 {
				return true
			}
			for _, n := range once {
				onceFields[n] = true
			}
			for _, n := range others {
				cacheOwner[n] = true
			}
			return true
		})
	}
	// Pass 1b: package-level sync.Once variables and their sibling
	// package-level vars (the candidate once-published defaults).
	onceVars := map[string]bool{}
	pkgVars := map[string]bool{}
	for _, f := range p.Files {
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				isOnce := vs.Type != nil && isSyncOnce(vs.Type)
				for _, name := range vs.Names {
					if isOnce {
						onceVars[name.Name] = true
					} else {
						pkgVars[name.Name] = true
					}
				}
			}
		}
	}
	if len(onceFields) == 0 && len(onceVars) == 0 {
		return nil
	}

	// Pass 2: find every `<x>.<onceField>.Do(func(){...})` call; record
	// the closure nodes and the sibling fields assigned inside them.
	doLits := map[*ast.FuncLit]bool{}
	guarded := map[string]bool{}     // field names proven to be once-published memos
	guardedVars := map[string]bool{} // package-level vars proven to be once-published defaults
	for _, f := range p.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Do" || len(call.Args) != 1 {
				return true
			}
			switch base := sel.X.(type) {
			case *ast.SelectorExpr:
				if !onceFields[base.Sel.Name] {
					return true
				}
			case *ast.Ident:
				if !onceVars[base.Name] {
					return true
				}
			default:
				return true
			}
			lit, ok := call.Args[0].(*ast.FuncLit)
			if !ok {
				return true
			}
			doLits[lit] = true
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for _, lhs := range as.Lhs {
					switch l := lhs.(type) {
					case *ast.SelectorExpr:
						if cacheOwner[l.Sel.Name] {
							guarded[l.Sel.Name] = true
						}
					case *ast.Ident:
						// := defines a closure-local, not a write to
						// the package variable of the same name.
						if as.Tok != token.DEFINE && pkgVars[l.Name] {
							guardedVars[l.Name] = true
						}
					}
				}
				return true
			})
			return true
		})
	}
	if len(guarded) == 0 && len(guardedVars) == 0 {
		return nil
	}

	// Pass 3: flag assignments to guarded fields outside the Do
	// closures found in pass 2.
	var diags []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok && doLits[lit] {
				return false // inside a Do closure: writes are fine
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				switch l := lhs.(type) {
				case *ast.SelectorExpr:
					if !guarded[l.Sel.Name] {
						continue
					}
					diags = append(diags, Diagnostic{
						Pos:  position(p.Fset, l.Pos(), f.Path),
						Code: "planonce",
						Message: fmt.Sprintf(
							"field %s is published under sync.Once.Do elsewhere; this unguarded write races with concurrent readers",
							l.Sel.Name),
					})
				case *ast.Ident:
					if as.Tok == token.DEFINE || !guardedVars[l.Name] {
						continue
					}
					diags = append(diags, Diagnostic{
						Pos:  position(p.Fset, l.Pos(), f.Path),
						Code: "planonce",
						Message: fmt.Sprintf(
							"package variable %s is published under sync.Once.Do elsewhere; this unguarded write races with concurrent readers",
							l.Name),
					})
				}
			}
			return true
		})
	}
	return diags
}

// isSyncOnce reports whether a field type is sync.Once.
func isSyncOnce(t ast.Expr) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Once" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "sync"
}

// position resolves a token.Pos and rewrites the filename to the
// repo-relative logical path, so diagnostics are stable regardless of
// where the tree was parsed from.
func position(fset *token.FileSet, pos token.Pos, logical string) token.Position {
	pp := fset.Position(pos)
	pp.Filename = logical
	return pp
}
