// Package lockorder builds a mutex acquisition-order graph and enforces the
// locking discipline of the remoting path (DESIGN §4c). Mutexes are keyed
// by receiver type and field ("tcpCaller.mu"), by package-level variable
// name, or, in a package-level variable of anonymous struct type, by
// package, variable and field path ("wire.returned.mu"), so every instance
// of a type shares one node. Three families of reports:
//
//   - Cycles: lock A is acquired while B is held in one place and B while A
//     is held in another — the classic AB/BA deadlock. Edges flow through
//     one level of same-package calls, so a helper that locks on behalf of
//     its caller still contributes.
//   - Re-entry: acquiring a mutex that is already held (directly or through
//     a callee) — sync mutexes are not reentrant. RLock while only RLock is
//     held is tolerated.
//   - Blocking while held: a remoting roundtrip or a channel send executed
//     with a lock held pins the lock behind network latency or a slow
//     receiver. A buffered channel fills too, so only a send in a select
//     with a default arm is exempt.
//
// Held ranges are lexical: Lock to the nearest matching Unlock on the same
// fall-through path (dataflow.Sequential), or to the function's end for
// deferred unlocks. Goroutine literals are separate executions and are
// analyzed as their own bodies. The sim package is exempt: it implements
// the synchronization primitives this analyzer reasons about.
package lockorder

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"dgsf/internal/lint"
	"dgsf/internal/lint/dataflow"
)

// Analyzer is the lockorder pass.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc: "mutex acquisition cycles (AB/BA), re-entrant locking, and remoting " +
		"roundtrips or blocking channel sends while a lock is held; edges " +
		"propagate through one level of same-package calls",
	Run: run,
}

// RoundtripCalls names the synchronous transport entry points, the calls
// that block on the network.
var RoundtripCalls = map[string]bool{"Roundtrip": true, "RoundtripTimeout": true, "RoundtripVec": true}

type mode int

const (
	modeR mode = iota // RLock
	modeW             // Lock
)

// lockEv is one Lock/RLock/Unlock/RUnlock on a keyed mutex.
type lockEv struct {
	key      string
	mode     mode
	acquire  bool
	deferred bool
	site     dataflow.Site
}

// sendEv is one channel send; nonBlocking marks a select arm with a
// default.
type sendEv struct {
	nonBlocking bool
	site        dataflow.Site
}

type callEv struct {
	call *ast.CallExpr
	site dataflow.Site
}

// funcEvents is the event stream of one executable body: a declared
// function, or a goroutine literal split out as its own execution.
type funcEvents struct {
	name  string
	decl  *ast.FuncDecl // nil for goroutine literals
	body  *ast.BlockStmt
	locks []lockEv
	sends []sendEv
	calls []callEv
}

// summary is what a callee does to locks, one level deep.
type summary struct {
	acquires     map[string]mode // worst (most exclusive) mode per key
	roundtrip    bool
	blockingSend bool
}

type edgeKey struct{ from, to string }

func run(pass *lint.Pass) error {
	// The sim package implements the primitives (queues, waitgroups,
	// condition-style sleeps) and the mailbox into its loop; its locking is
	// the engine's own design, not a violation.
	if lint.PkgPathHasSuffix(pass.Pkg.Path(), "internal/sim") {
		return nil
	}
	var fns []*funcEvents
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fns = collectEvents(pass, fd, fns)
		}
	}
	sums := map[*types.Func]*summary{}
	for _, fe := range fns {
		if fe.decl == nil {
			continue
		}
		obj, ok := pass.Info.Defs[fe.decl.Name].(*types.Func)
		if !ok {
			continue
		}
		sums[obj] = summarize(pass, fe)
	}
	edges := map[edgeKey]dataflow.Site{}
	for _, fe := range fns {
		checkFunc(pass, fe, sums, edges)
	}
	reportCycles(pass, edges)
	return nil
}

// --- event collection ---

func collectEvents(pass *lint.Pass, fd *ast.FuncDecl, out []*funcEvents) []*funcEvents {
	fe := &funcEvents{name: fd.Name.Name, decl: fd, body: fd.Body}
	out = append(out, fe)
	out = walkBody(pass, fe, fe.body, out)
	return out
}

// walkBody records events with ancestor stacks. Goroutine literals become
// separate funcEvents (their execution is concurrent, not sequential);
// non-literal go statements are skipped entirely. Inside deferred code only
// lock events are kept: a deferred unlock shapes held ranges, but deferred
// sends and calls run at exit in LIFO order this pass does not model.
func walkBody(pass *lint.Pass, fe *funcEvents, body *ast.BlockStmt, out []*funcEvents) []*funcEvents {
	var stack []ast.Node
	deferDepth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.DeferStmt); ok {
				deferDepth--
			}
			stack = stack[:len(stack)-1]
			return true
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				sub := &funcEvents{name: fe.name + " (goroutine)", body: lit.Body}
				out = append(out, sub)
				out = walkBody(pass, sub, lit.Body, out)
			}
			return false
		case *ast.DeferStmt:
			deferDepth++
		case *ast.CallExpr:
			site := dataflow.Site{Pos: x.Pos(), Stack: append([]ast.Node(nil), stack...)}
			if ev, ok := lockEvent(pass, x); ok {
				ev.deferred = deferDepth > 0
				ev.site = site
				fe.locks = append(fe.locks, ev)
			} else if deferDepth == 0 {
				fe.calls = append(fe.calls, callEv{call: x, site: site})
			}
		case *ast.SendStmt:
			if deferDepth == 0 {
				fe.sends = append(fe.sends, sendEv{
					nonBlocking: inSelectWithDefault(stack),
					site:        dataflow.Site{Pos: x.Pos(), Stack: append([]ast.Node(nil), stack...)},
				})
			}
		}
		stack = append(stack, n)
		return true
	})
	return out
}

// lockEvent recognizes m.Lock()/RLock()/Unlock()/RUnlock() on a keyed
// sync.Mutex or sync.RWMutex: a field of a named struct ("T.f"), a
// package-level variable, or a field of one of anonymous struct type
// ("pkg.v.f"). Local and embedded mutexes are not keyed.
func lockEvent(pass *lint.Pass, call *ast.CallExpr) (lockEv, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return lockEv{}, false
	}
	var ev lockEv
	switch sel.Sel.Name {
	case "Lock":
		ev.mode, ev.acquire = modeW, true
	case "RLock":
		ev.mode, ev.acquire = modeR, true
	case "Unlock":
		ev.mode, ev.acquire = modeW, false
	case "RUnlock":
		ev.mode, ev.acquire = modeR, false
	default:
		return lockEv{}, false
	}
	recv := ast.Unparen(sel.X)
	if !isSyncMutex(pass.Info.TypeOf(recv)) {
		return lockEv{}, false
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		fieldObj, ok := pass.Info.Uses[r.Sel].(*types.Var)
		if !ok || !fieldObj.IsField() {
			return lockEv{}, false
		}
		base := pass.Info.TypeOf(r.X)
		if ptr, ok := base.(*types.Pointer); ok {
			base = ptr.Elem()
		}
		if named, ok := base.(*types.Named); ok {
			ev.key = named.Obj().Name() + "." + fieldObj.Name()
		} else if ev.key, ok = varFieldPath(pass, r); !ok {
			return lockEv{}, false
		}
	case *ast.Ident:
		obj := pass.Info.ObjectOf(r)
		if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			return lockEv{}, false
		}
		ev.key = obj.Name()
	default:
		return lockEv{}, false
	}
	return ev, true
}

// varFieldPath spells a chain of field selections rooted at a package-level
// variable as "pkg.v.f1.f2", or reports false.
func varFieldPath(pass *lint.Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		if f, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && f.IsField() {
			base, ok := varFieldPath(pass, e.X)
			return base + "." + f.Name(), ok
		}
		id = e.Sel // a qualified identifier, pkg.v
	default:
		return "", false
	}
	obj, ok := pass.Info.ObjectOf(id).(*types.Var)
	if !ok || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Pkg().Name() + "." + obj.Name(), true
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
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

func inSelectWithDefault(stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		if _, ok := stack[i].(*ast.CommClause); !ok {
			continue
		}
		// The clause's select is above it (past the select's body block).
		for j := i - 1; j >= 0; j-- {
			sel, ok := stack[j].(*ast.SelectStmt)
			if !ok {
				continue
			}
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					return true
				}
			}
			break
		}
	}
	return false
}

// --- per-function analysis ---

func summarize(pass *lint.Pass, fe *funcEvents) *summary {
	s := &summary{acquires: map[string]mode{}}
	for _, l := range fe.locks {
		if !l.acquire || l.deferred {
			continue
		}
		if m, ok := s.acquires[l.key]; !ok || l.mode > m {
			s.acquires[l.key] = l.mode
		}
	}
	for _, c := range fe.calls {
		if isRoundtrip(pass, c.call) {
			s.roundtrip = true
		}
	}
	for _, snd := range fe.sends {
		if !snd.nonBlocking {
			s.blockingSend = true
		}
	}
	return s
}

func isRoundtrip(pass *lint.Pass, call *ast.CallExpr) bool {
	if !RoundtripCalls[dataflow.CalleeName(call)] {
		return false
	}
	fn := dataflow.CalleeFunc(call, pass.Info)
	return fn != nil && fn.Pkg() != nil && lint.PkgPathHasSuffix(fn.Pkg().Path(), "internal/remoting")
}

func line(pass *lint.Pass, s dataflow.Site) int { return pass.Fset.Position(s.Pos).Line }

func checkFunc(pass *lint.Pass, fe *funcEvents, sums map[*types.Func]*summary, edges map[edgeKey]dataflow.Site) {
	var self *types.Func
	if fe.decl != nil {
		self, _ = pass.Info.Defs[fe.decl.Name].(*types.Func)
	}
	addEdge := func(from, to string, site dataflow.Site) {
		k := edgeKey{from, to}
		if prev, ok := edges[k]; !ok || site.Pos < prev.Pos {
			edges[k] = site
		}
	}
	for _, l := range fe.locks {
		if !l.acquire || l.deferred {
			continue
		}
		end := fe.body.End()
		for _, u := range fe.locks {
			if u.acquire || u.deferred || u.key != l.key {
				continue
			}
			if u.site.Pos > l.site.Pos && u.site.Pos < end && dataflow.Sequential(l.site, u.site) {
				end = u.site.Pos
			}
		}
		held := func(s dataflow.Site) bool {
			return s.Pos > l.site.Pos && s.Pos < end && dataflow.Sequential(l.site, s)
		}
		for _, e := range fe.locks {
			if !e.acquire || e.deferred || !held(e.site) {
				continue
			}
			if e.key == l.key {
				if !(l.mode == modeR && e.mode == modeR) {
					pass.Reportf(e.site.Pos, "%s is locked again while already held (acquired at line %d); sync mutexes are not reentrant and this deadlocks", l.key, line(pass, l.site))
				}
				continue
			}
			addEdge(l.key, e.key, e.site)
		}
		for _, c := range fe.calls {
			if !held(c.site) {
				continue
			}
			if isRoundtrip(pass, c.call) {
				pass.Reportf(c.site.Pos, "remoting roundtrip %s while %s is held (acquired at line %d) pins the lock behind a network round trip; release it first", dataflow.CalleeName(c.call), l.key, line(pass, l.site))
				continue
			}
			callee := dataflow.CalleeFunc(c.call, pass.Info)
			if callee == nil || callee == self {
				if callee != nil && callee == self && sums[callee] != nil {
					if m, ok := sums[callee].acquires[l.key]; ok && !(l.mode == modeR && m == modeR) {
						pass.Reportf(c.site.Pos, "recursive call to %s re-acquires %s, which is already held (acquired at line %d); this deadlocks", callee.Name(), l.key, line(pass, l.site))
					}
				}
				continue
			}
			sum := sums[callee]
			if sum == nil {
				continue
			}
			keys := make([]string, 0, len(sum.acquires))
			for k := range sum.acquires {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if k == l.key {
					if !(l.mode == modeR && sum.acquires[k] == modeR) {
						pass.Reportf(c.site.Pos, "call to %s acquires %s, which is already held (acquired at line %d); this deadlocks", callee.Name(), k, line(pass, l.site))
					}
					continue
				}
				addEdge(l.key, k, c.site)
			}
			if sum.roundtrip {
				pass.Reportf(c.site.Pos, "call to %s performs a remoting roundtrip while %s is held (acquired at line %d); release the lock first", callee.Name(), l.key, line(pass, l.site))
			}
			if sum.blockingSend {
				pass.Reportf(c.site.Pos, "call to %s sends on a channel while %s is held (acquired at line %d); the lock is pinned until a receiver drains it", callee.Name(), l.key, line(pass, l.site))
			}
		}
		for _, snd := range fe.sends {
			if !held(snd.site) || snd.nonBlocking {
				continue
			}
			pass.Reportf(snd.site.Pos, "channel send while %s is held (acquired at line %d) can block until a receiver is ready; release the lock first", l.key, line(pass, l.site))
		}
	}
}

// --- cycle detection ---

func reportCycles(pass *lint.Pass, edges map[edgeKey]dataflow.Site) {
	adj := map[string][]string{}
	for k := range edges {
		adj[k.from] = append(adj[k.from], k.to)
	}
	for _, tos := range adj {
		sort.Strings(tos)
	}
	keys := make([]edgeKey, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		path := findPath(adj, k.to, k.from)
		if len(path) < 2 {
			// Self edges are reported as re-entry, not cycles, so a real
			// path always has >= 2 nodes.
			continue
		}
		cycle := append([]string{k.from}, path...)
		counter := edges[edgeKey{path[len(path)-2], path[len(path)-1]}]
		pass.Reportf(edges[k].Pos, "lock order cycle %s: %s is acquired here while %s is held, but the reverse order is established at line %d", strings.Join(cycle, " -> "), k.to, k.from, line(pass, counter))
	}
}

// findPath returns the BFS-shortest path from src to dst (inclusive of
// both), deterministically, or nil if dst is unreachable.
func findPath(adj map[string][]string, src, dst string) []string {
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			var path []string
			for at := dst; ; at = prev[at] {
				path = append([]string{at}, path...)
				if at == src {
					return path
				}
			}
		}
		for _, m := range adj[n] {
			if _, seen := prev[m]; !seen {
				prev[m] = n
				queue = append(queue, m)
			}
		}
	}
	return nil
}
