// Package lockcheck verifies the repo's "guarded by mu" comments.
//
// A struct field whose doc or line comment contains "guarded by <name>"
// declares that every access goes through the named sibling mutex. The
// service layer (job tables, metrics counters, SSE subscriber maps) and the
// harness's singleflight cache live or die by these comments, and a comment
// is exactly the kind of invariant that rots: one new handler reading
// s.jobs without s.mu and the race detector only catches it if a test
// happens to collide.
//
// The analysis walks each function with a branch-sensitive held-lock set:
// x.mu.Lock()/RLock() adds "x.mu", Unlock()/RUnlock() removes it, branches
// merge by intersection, and loop bodies start from the loop entry state.
// An access to a guarded field is reported unless the matching mutex (same
// base path: the field s.jobs needs s.mu held) is in the set.
//
// Helper methods that document "caller holds the lock" are exempted two
// ways: a name ending in "Locked" (the repo's convention — viewLocked,
// changedLocked), or an explicit //prisim:locked directive in the doc
// comment. Function literals run on unknown goroutines/defer schedules, so
// their bodies start with no locks held — which is the truth for the `go`
// and `defer` cases that matter.
package lockcheck

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"prisim/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "require the named mutex to be held when accessing 'guarded by mu' fields",
	Run:  run,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:    pass,
		guarded: make(map[types.Object]string),
	}
	c.collect()
	if len(c.guarded) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") ||
				analysis.HasDirective(fd.Doc, "//prisim:locked") {
				continue // caller-holds-lock helper
			}
			c.walkStmts(fd.Body.List, held{})
		}
	}
	return nil, nil
}

type checker struct {
	pass    *analysis.Pass
	guarded map[types.Object]string // field object -> guarding mutex field name
}

func (c *checker) collect() {
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardComment(field.Doc)
				if mu == "" {
					mu = guardComment(field.Comment)
				}
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
						c.guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
}

func guardComment(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
		return m[1]
	}
	return ""
}

// held is the set of mutex paths ("s.mu", "r.view.mu") currently locked.
type held map[string]bool

func (h held) clone() held {
	n := make(held, len(h))
	for k := range h {
		n[k] = true
	}
	return n
}

func (h held) intersect(o held) {
	for k := range h {
		if !o[k] {
			delete(h, k)
		}
	}
}

// walkStmts threads the held set through a statement list, mutating h in
// place, and reports whether the list always terminates enclosing flow.
func (c *checker) walkStmts(stmts []ast.Stmt, h held) bool {
	for _, s := range stmts {
		if c.walkStmt(s, h) {
			return true
		}
	}
	return false
}

func (c *checker) walkStmt(s ast.Stmt, h held) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.walkStmts(s.List, h)
	case *ast.ExprStmt:
		c.checkExpr(s.X, h)
		c.lockEffect(s.X, h)
		return isPanic(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.checkExpr(r, h)
			c.lockEffect(r, h)
		}
		for _, l := range s.Lhs {
			c.checkExpr(l, h)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.checkExpr(v, h)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		c.checkExpr(s.X, h)
	case *ast.SendStmt:
		c.checkExpr(s.Chan, h)
		c.checkExpr(s.Value, h)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.checkExpr(r, h)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.DeferStmt:
		// defer x.mu.Unlock() runs at return: it neither releases now nor
		// changes any path we walk. Deferred closures run with an unknown
		// lock state; assume none held (checkExpr walks the body that way).
		for _, a := range s.Call.Args {
			c.checkExpr(a, h)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(fl.Body.List, held{})
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			c.checkExpr(a, h)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmts(fl.Body.List, held{})
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, h)
		}
		c.checkExpr(s.Cond, h)
		c.lockEffect(s.Cond, h)
		bh := h.clone()
		bodyTerm := c.walkStmts(s.Body.List, bh)
		eh := h.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.walkStmt(s.Else, eh)
		}
		switch {
		case bodyTerm && elseTerm:
			return true
		case bodyTerm:
			replace(h, eh)
		case elseTerm:
			replace(h, bh)
		default:
			bh.intersect(eh)
			replace(h, bh)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, h)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond, h)
		}
		bh := h.clone()
		c.walkStmts(s.Body.List, bh)
		if s.Post != nil {
			c.walkStmt(s.Post, bh)
		}
		bh.intersect(h) // body may run zero times
		replace(h, bh)
	case *ast.RangeStmt:
		c.checkExpr(s.X, h)
		bh := h.clone()
		c.walkStmts(s.Body.List, bh)
		bh.intersect(h)
		replace(h, bh)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.multiway(s, h)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, h)
	}
	return false
}

// multiway handles switch/type-switch/select: each clause starts from the
// entry state; the post-state is the intersection of the non-terminating
// clauses (plus entry, when no default clause guarantees a clause runs).
func (c *checker) multiway(s ast.Stmt, h held) bool {
	var clauses []ast.Stmt
	hasDefault := false
	isSelect := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, h)
		}
		if s.Tag != nil {
			c.checkExpr(s.Tag, h)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, h)
		}
		c.walkStmt(s.Assign, h)
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
		isSelect = true
	}
	var outs []held
	allTerm := len(clauses) > 0
	for _, cl := range clauses {
		ch := h.clone()
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, x := range cl.List {
				c.checkExpr(x, ch)
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				c.walkStmt(cl.Comm, ch)
			}
			body = cl.Body
		}
		if !c.walkStmts(body, ch) {
			allTerm = false
			outs = append(outs, ch)
		}
	}
	if len(outs) > 0 {
		m := outs[0]
		for _, o := range outs[1:] {
			m.intersect(o)
		}
		if !hasDefault && !isSelect {
			m.intersect(h) // a switch without default may run no clause
		}
		replace(h, m)
	}
	// A select without default blocks until a clause runs, so it terminates
	// when every clause does; a switch additionally needs a default.
	return allTerm && (hasDefault || isSelect)
}

func replace(dst, src held) {
	for k := range dst {
		delete(dst, k)
	}
	for k := range src {
		dst[k] = true
	}
}

// lockEffect applies x.mu.Lock()/Unlock() calls found in expr, in source
// order, to the held set.
func (c *checker) lockEffect(x ast.Expr, h held) {
	ast.Inspect(x, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path := analysis.ExprString(sel.X)
		switch sel.Sel.Name {
		case "Lock", "RLock":
			h[path] = true
		case "Unlock", "RUnlock":
			delete(h, path)
		}
		return true
	})
}

// checkExpr reports guarded-field accesses inside expr made without the
// guarding mutex held. Function-literal bodies are walked with no locks
// held (they run on unknown schedules).
func (c *checker) checkExpr(x ast.Expr, h held) {
	ast.Inspect(x, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.walkStmts(n.Body.List, held{})
			return false
		case *ast.SelectorExpr:
			sel, ok := c.pass.TypesInfo.Selections[n]
			if !ok {
				return true
			}
			obj := sel.Obj()
			if v, ok := obj.(*types.Var); ok {
				obj = v.Origin() // a generic instantiation's field -> the declared one
			}
			mu, ok := c.guarded[obj]
			if !ok {
				return true
			}
			mutexPath := analysis.ExprString(n.X) + "." + mu
			if !h[mutexPath] {
				c.pass.Reportf(n.Pos(),
					"access to %s.%s without holding %s (field is guarded by %s)",
					analysis.ExprString(n.X), n.Sel.Name, mutexPath, mu)
			}
		}
		return true
	})
}

func isPanic(x ast.Expr) bool {
	call, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "panic")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(fun.Sel.Name), "panic")
	}
	return false
}
