// The simtime check: code reachable from a sim.Proc body runs under
// the deterministic discrete-event kernel, whose whole design is that
// exactly one process executes at a time and every block is a
// virtual-time event (internal/sim's package comment). Blocking on
// anything else — OS time, a bare channel, a goroutine handoff — either
// deadlocks the single-threaded kernel or, worse, introduces real
// concurrency whose schedule leaks into results. Inside such code only
// the sim primitives may block: Proc.Sleep/Recv/RecvUntil,
// Resource.Acquire, Event.Wait and friends.
//
// Reachability is computed per package: any function with a *sim.Proc
// parameter or receiver is a root (that is how process bodies and their
// helpers receive the virtual clock), the static call graph inside the
// package extends the set, and function literals nested in reachable
// code are reachable (the kernel runs scheduled callbacks inside the
// simulation too). The sim package itself is exempt — it implements the
// primitives out of exactly the machinery this check forbids
// everywhere else.
package lint

import (
	"go/ast"
	"go/types"
)

// simPkgPath is the import path of the discrete-event kernel.
const simPkgPath = "repro/internal/sim"

// simtime forbids OS-time blocking, bare channel operations and
// goroutine spawns in code reachable from a sim.Proc body.
func simtime(u *unit) []finding {
	if u.Pkg.Path() == simPkgPath {
		return nil // the primitives' own implementation
	}

	// Collect the package's function declarations and their objects.
	type fnode struct {
		decl    *ast.FuncDecl
		root    bool
		callees map[*types.Func]bool
	}
	var nodes []*fnode
	byObj := make(map[*types.Func]*fnode)
	for _, fd := range u.funcs() {
		obj, _ := u.Info.Defs[fd.Name].(*types.Func)
		if obj == nil {
			continue
		}
		n := &fnode{decl: fd, root: funcTakesProc(obj), callees: make(map[*types.Func]bool)}
		ast.Inspect(fd.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(u.Info, call); callee != nil && callee.Pkg() == u.Pkg {
				n.callees[callee] = true
			}
			return true
		})
		nodes = append(nodes, n)
		byObj[obj] = n
	}

	// Propagate reachability through the package-local call graph.
	reach := make(map[*fnode]bool)
	var mark func(n *fnode)
	mark = func(n *fnode) {
		if reach[n] {
			return
		}
		reach[n] = true
		for callee := range n.callees {
			if cn, ok := byObj[callee]; ok {
				mark(cn)
			}
		}
	}
	for _, n := range nodes {
		if n.root {
			mark(n)
		}
	}

	var found []finding
	for _, n := range nodes {
		if reach[n] {
			found = append(found, simCheckBody(u, n.decl.Body)...)
		}
	}
	return found
}

// funcTakesProc reports whether fn has a *sim.Proc parameter or
// receiver — the marker that its body executes under the kernel.
func funcTakesProc(fn *types.Func) bool {
	sig := fn.Signature()
	if recv := sig.Recv(); recv != nil && isSimType(recv.Type(), "Proc") {
		return true
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isSimType(params.At(i).Type(), "Proc") {
			return true
		}
	}
	return false
}

// isSimType reports whether t is (a pointer to) the named sim type.
func isSimType(t types.Type, name string) bool {
	pkgPath, typeName, ok := namedTypePath(t)
	return ok && pkgPath == simPkgPath && typeName == name
}

// simBlockingTime are the time functions that block or arm OS timers.
var simBlockingTime = map[string]bool{
	"Sleep": true, "After": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// simBlockingSync are the sync methods that block the calling
// goroutine — fatal under cooperative single-threaded scheduling.
var simBlockingSync = map[string]bool{
	"Wait": true, "Lock": true, "RLock": true,
}

// simCheckBody flags forbidden blocking constructs in one reachable
// function body, including nested literals.
func simCheckBody(u *unit, body ast.Node) (found []finding) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.GoStmt:
			found = append(found, u.findingAt(stmt.Pos(), "simtime", "goroutine spawned in sim-reachable code: the kernel schedules exactly one process at a time (use Kernel.Spawn)"))
		case *ast.SelectStmt:
			found = append(found, u.findingAt(stmt.Pos(), "simtime", "select in sim-reachable code: bare channel waits bypass the virtual clock (use Proc.Recv/RecvUntil)"))
		case *ast.SendStmt:
			found = append(found, u.findingAt(stmt.Pos(), "simtime", "channel send in sim-reachable code: bare channel operations bypass the virtual clock (use Proc.Send)"))
		case *ast.UnaryExpr:
			if stmt.Op.String() == "<-" {
				found = append(found, u.findingAt(stmt.Pos(), "simtime", "channel receive in sim-reachable code: bare channel operations bypass the virtual clock (use Proc.Recv)"))
			}
		case *ast.CallExpr:
			fn := calleeFunc(u.Info, stmt)
			if fn == nil {
				return true
			}
			if fn.Signature().Recv() == nil {
				if funcPkgPath(fn) == "time" && simBlockingTime[fn.Name()] {
					found = append(found, u.findingAt(stmt.Pos(), "simtime", "time.%s in sim-reachable code: OS time must not block a simulated process (use Proc.Sleep/RecvUntil)", fn.Name()))
				}
				return true
			}
			if pkgPath, typeName, ok := namedTypePath(fn.Signature().Recv().Type()); ok && pkgPath == "sync" && simBlockingSync[fn.Name()] {
				found = append(found, u.findingAt(stmt.Pos(), "simtime", "sync.%s.%s in sim-reachable code: real synchronization must not block a simulated process", typeName, fn.Name()))
			}
		}
		return true
	})
	return found
}
