// Package lockscope enforces two locking conventions:
//
//  1. Struct fields annotated "// guarded by <mu>" may only be accessed from
//     functions that visibly lock <mu> (a <x>.<mu>.Lock() or RLock() call
//     somewhere in the function) or that declare the caller holds it by
//     ending their name in "Locked". Everything else is a data race waiting
//     for -race to get lucky.
//
//  2. Expensive calls — pool sweeps, drift pricing, outbound HTTP — must not
//     run while a mutex is held. Holding a lock across a pool-sized sweep
//     serializes every other goroutine touching the structure; this is the
//     deltaMu class fixed in ae926f8, where LastDrift priced drift against
//     the live pool while the delta mutex was held.
//
// The held-mutex tracking is a linear, source-order approximation: Lock()
// adds, Unlock() removes, deferred Unlock keeps the mutex held to the end of
// the function, and goroutine bodies and other function literals start with
// an empty held set. It is a lint heuristic, not an escape analysis — the
// //srlint:lockscope directive exists for the cases it gets wrong.
package lockscope

import (
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strings"

	"stablerank/internal/lint"
)

// DefaultExpensive lists substrings matched against a callee's full
// type-qualified name; a hit while any mutex is held is flagged. The
// defaults cover the repo's pool-scale sweeps and outbound HTTP.
var DefaultExpensive = []string{
	"LastDrift",
	"BuildPool",
	"ParallelEstimate",
	"net/http.Client",
}

// New returns the lockscope analyzer. expensive overrides DefaultExpensive
// when non-empty.
func New(expensive ...string) *lint.Analyzer {
	if len(expensive) == 0 {
		expensive = DefaultExpensive
	}
	return &lint.Analyzer{
		Name: "lockscope",
		Doc: "enforces 'guarded by <mu>' field comments and flags expensive calls " +
			"(pool sweeps, drift pricing, HTTP) made while a mutex is held",
		Run: func(pass *lint.Pass) { run(pass, expensive) },
	}
}

func run(pass *lint.Pass, expensive []string) {
	guarded := collectGuarded(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGuardedAccess(pass, guarded, fn)
			checkHeldCalls(pass, fn.Body, expensive, nil)
		}
	}
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// collectGuarded maps struct field objects to the mutex name their
// "// guarded by <mu>" comment declares.
func collectGuarded(pass *lint.Pass) map[types.Object]string {
	guarded := make(map[types.Object]string)
	for _, f := range pass.Files {
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
					if obj := pass.Info.Defs[name]; obj != nil {
						guarded[obj] = mu
					}
				}
			}
			return true
		})
	}
	return guarded
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

// checkGuardedAccess flags selector accesses to guarded fields from
// functions that neither lock the named mutex anywhere in their body nor
// carry the "Locked" suffix convention.
func checkGuardedAccess(pass *lint.Pass, guarded map[types.Object]string, fn *ast.FuncDecl) {
	if len(guarded) == 0 {
		return
	}
	name := fn.Name.Name
	if strings.HasSuffix(name, "Locked") || strings.HasSuffix(name, "locked") {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		mu, ok := guarded[selection.Obj()]
		if !ok {
			return true
		}
		if locksNamed(fn.Body, mu) {
			return true
		}
		pass.Reportf(sel.Sel.Pos(),
			"field %s is guarded by %s, but %s neither locks %s nor is named with a Locked suffix (//srlint:lockscope <reason> to justify)",
			selection.Obj().Name(), mu, name, mu)
		return true
	})
}

// locksNamed reports whether the body contains a call of the shape
// <anything>.<mu>.Lock() or <anything>.<mu>.RLock().
func locksNamed(body *ast.BlockStmt, mu string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		switch x := sel.X.(type) {
		case *ast.SelectorExpr:
			found = x.Sel.Name == mu
		case *ast.Ident:
			found = x.Name == mu
		}
		return !found
	})
	return found
}

// checkHeldCalls walks a function body in source order, tracking which
// mutexes are held, and flags expensive calls made while any are. Function
// literals restart with an empty held set (they typically run on another
// goroutine or after the critical section).
func checkHeldCalls(pass *lint.Pass, body *ast.BlockStmt, expensive []string, held map[string]bool) {
	if held == nil {
		held = make(map[string]bool)
	}
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the mutex held for the rest of the
			// function; don't let the Unlock inside it clear the set.
			if mutexOp(pass, n.Call) != "" {
				return false
			}
			return true
		case *ast.CallExpr:
			switch op, key := mutexOpKey(pass, n); op {
			case "Lock", "RLock":
				held[key] = true
				return true
			case "Unlock", "RUnlock":
				delete(held, key)
				return true
			}
			if len(held) == 0 {
				return true
			}
			if name := expensiveCallee(pass, n, expensive); name != "" {
				pass.Reportf(n.Pos(),
					"call to %s while holding %s: expensive work under a mutex serializes everyone contending for it; "+
						"move the call outside the critical section (//srlint:lockscope <reason> to justify)",
					name, heldNames(held))
			}
		}
		return true
	})
	for _, lit := range lits {
		checkHeldCalls(pass, lit.Body, expensive, nil)
	}
}

// mutexOp returns the Lock/Unlock/RLock/RUnlock method name if the call is
// one on a sync.Mutex or sync.RWMutex, else "".
func mutexOp(pass *lint.Pass, call *ast.CallExpr) string {
	op, _ := mutexOpKey(pass, call)
	return op
}

func mutexOpKey(pass *lint.Pass, call *ast.CallExpr) (op, key string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	if !isMutex(pass.TypeOf(sel.X)) {
		return "", ""
	}
	return sel.Sel.Name, types.ExprString(sel.X)
}

func isMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// expensiveCallee returns the callee's full name if it matches the expensive
// list, else "".
func expensiveCallee(pass *lint.Pass, call *ast.CallExpr, expensive []string) string {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		if selection, ok := pass.Info.Selections[fun]; ok {
			obj = selection.Obj()
		} else {
			obj = pass.Info.Uses[fun.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	full := fn.FullName()
	for _, pat := range expensive {
		if strings.Contains(full, pat) {
			return full
		}
	}
	return ""
}

func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for name := range held {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
