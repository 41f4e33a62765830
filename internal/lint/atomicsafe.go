package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicSafe enforces a single protection regime per struct field: any
// field that is ever accessed through a package-level sync/atomic
// function (atomic.AddUint64(&s.gen, 1), atomic.LoadInt64(&s.n), ...)
// must be accessed that way everywhere. A plain read or write of such a
// field races with the atomic sites — the race detector only catches it
// when the schedule cooperates — and a mutex-guarded plain access is no
// better, because the atomic sites do not take the mutex. The typed
// atomics (atomic.Int64, atomic.Pointer[T]) are immune by construction
// — their values are unexported — which is why the repo's shared
// counters and pointers use them; this analyzer pins down the old-style
// address-taken pattern so it cannot creep back in half-converted form.
//
// The check runs in every package: unsynchronized state is a bug
// wherever it lives.
var AtomicSafe = &Analyzer{
	Name: "atomicsafe",
	Doc:  "forbid plain or mutex-mixed access to struct fields that are accessed via sync/atomic",
	Run:  runAtomicSafe,
}

func runAtomicSafe(p *Pass) {
	// Pass 1: every field whose address is taken in a sync/atomic call,
	// with the first such site for the report text, plus the selector
	// nodes that are themselves part of an atomic call.
	atomicAt := make(map[types.Object]token.Position)
	inAtomicCall := make(map[*ast.SelectorExpr]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicPkgCall(p, call) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				v, ok := p.ObjectOf(sel.Sel).(*types.Var)
				if !ok || !v.IsField() {
					continue
				}
				if _, seen := atomicAt[v]; !seen {
					atomicAt[v] = p.Fset.Position(call.Pos())
				}
				inAtomicCall[sel] = true
			}
			return true
		})
	}
	if len(atomicAt) == 0 {
		return
	}

	// Pass 2: any other selector of those fields is a violation. The
	// message distinguishes mutex-mixed accesses (the enclosing function
	// also locks a mutex) from bare plain accesses.
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			locked := isFunc && fd.Body != nil && locksMutex(p, fd.Body)
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || inAtomicCall[sel] {
					return true
				}
				v, ok := p.ObjectOf(sel.Sel).(*types.Var)
				if !ok {
					return true
				}
				at, isAtomic := atomicAt[v]
				if !isAtomic {
					return true
				}
				if locked {
					p.Reportf(sel.Pos(), "field %s is accessed via sync/atomic (%s) but plainly under a mutex here: the atomic sites do not take the lock, so this still races; pick one protection regime", v.Name(), at)
				} else {
					p.Reportf(sel.Pos(), "plain access to field %s, which is accessed via sync/atomic (%s): every read and write must go through sync/atomic", v.Name(), at)
				}
				return true
			})
		}
	}
}

// isAtomicPkgCall reports whether call invokes a package-level function
// of sync/atomic. Methods of the typed atomics also live in that
// package but take their value through the receiver, not an address
// argument, so the receiver check keeps them out.
func isAtomicPkgCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// locksMutex reports whether the block contains a Lock or RLock call on
// a sync.Mutex or sync.RWMutex.
func locksMutex(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, method := range []string{"Lock", "RLock"} {
			if receiverNamed(p, call, "sync", "Mutex", method) ||
				receiverNamed(p, call, "sync", "RWMutex", method) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
