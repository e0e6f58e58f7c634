// Package lockhold implements the p2pvet analyzer that keeps blocking
// work out of mutex critical sections: while a sync.Mutex or
// sync.RWMutex is held, a function may not perform channel operations,
// blocking I/O, or call into //p2p:hotpath functions — any mutex a
// hot-path or control-plane goroutine contends must bound its hold
// times, or a slow snapshot write stalls the packet path (the daemon's
// snapshot-save-under-lock hazard class).
//
// Lock regions are lexical: from a .Lock()/.RLock() call on a
// sync.Mutex/sync.RWMutex-typed expression to the matching
// .Unlock()/.RUnlock() on the same expression in the same statement
// list, or — for the defer x.Unlock() idiom — to the end of the
// enclosing block. Within a region the analyzer reports:
//
//   - channel sends, receives, selects, and range-over-channel loops;
//   - calls to package-level os.* and net.* functions, and the io
//     pumps (io.Copy, io.ReadAll, io.ReadFull, …) that drive reads and
//     writes of unbounded size;
//   - direct time.Sleep calls;
//   - calls to //p2p:hotpath module functions (hot-path work must not
//     be serialized under a lock the packet path contends);
//   - calls to module functions that transitively perform channel
//     operations or blocking I/O, discovered by a per-package fixed
//     point and propagated across packages as facts.
//
// A select with a default clause never blocks, so neither it nor the
// send and receive operations heading its cases are reported; the
// operands of those operations and the clause bodies are audited as
// usual. This is how a producer wakes a parked consumer under its ring
// lock.
//
// time.Sleep does not propagate through the fact: a bounded, constant
// sleep inside a backpressure helper is a deliberate design, unlike an
// unbounded channel or I/O wait. The one such helper is the executor
// ring's idleWait, which backs only a producer's wait for space on a
// full ring; idle workers and Drain park instead of polling. Dynamic
// calls (interface methods, func values) are outside the static
// contract, exactly as in the hotpath analyzer.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"p2pbound/internal/analysis"
)

// Analyzer is the lock-hold discipline checker.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "check that no channel ops, blocking I/O, or hotpath calls happen while holding a mutex",
	Run:  run,
}

// Fact-key prefixes: "blk|<key>" marks a module function that may block
// (channel ops or blocking I/O, transitively); "hot|<key>" mirrors the
// //p2p:hotpath annotation for this analyzer's cross-package view
// (facts are namespaced per analyzer, so the hotpath analyzer's own
// facts are invisible here).
const (
	factBlocks = "blk|"
	factHot    = "hot|"
)

// ioPumps are the package-level io functions that drive reads/writes of
// unbounded size; constructors (io.MultiWriter, io.LimitReader) merely
// wrap and stay allowed.
var ioPumps = map[string]bool{
	"Copy": true, "CopyN": true, "CopyBuffer": true,
	"ReadAll": true, "ReadFull": true, "ReadAtLeast": true,
	"WriteString": true, "Pipe": false,
}

// netPure are package net functions that only parse or format — no
// sockets, no resolver — and therefore cannot block.
var netPure = map[string]bool{
	"ParseIP": true, "ParseCIDR": true, "ParseMAC": true,
	"IPv4": true, "IPv4Mask": true, "CIDRMask": true,
	"JoinHostPort": true, "SplitHostPort": true,
}

func run(pass *analysis.Pass) error {
	info := pass.TypesInfo

	// Phase 1: classify this package's functions — hotpath annotations
	// and a fixed point over "may block".
	decls := make(map[*types.Func]*ast.FuncDecl)
	hot := make(map[*types.Func]bool)
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if analysis.HasDirective(fd.Doc, analysis.DirectiveHotpath) {
				hot[fn] = true
				pass.ExportFact(factHot + analysis.FuncKey(fn))
			}
		}
	}
	blocks := make(map[*types.Func]string) // fn -> first blocking construct, for diagnostics
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if _, done := blocks[fn]; done {
				continue
			}
			if why := directlyBlocks(pass, blocks, fd); why != "" {
				blocks[fn] = why
				changed = true
			}
		}
	}
	for fn := range blocks {
		pass.ExportFact(factBlocks + analysis.FuncKey(fn))
	}

	// Phase 2: find lock regions and audit them.
	for _, fd := range decls {
		c := &checker{pass: pass, blocks: blocks, hot: hot}
		c.scanBlocks(fd.Body)
	}
	return nil
}

// directlyBlocks reports why fd's body may block ("" if it cannot):
// channel constructs, blocking stdlib calls, or a call to a module
// function already classified as blocking. Func literal bodies are
// excluded — a closure handed elsewhere runs on the callee's schedule.
func directlyBlocks(pass *analysis.Pass, blocks map[*types.Func]string, fd *ast.FuncDecl) string {
	why := ""
	nonBlocking := make(map[ast.Node]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !nonBlocking[n] {
				why = "a channel send"
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !nonBlocking[n] {
				why = "a channel receive"
			}
		case *ast.SelectStmt:
			if !markNonBlocking(n, nonBlocking) {
				why = "a select"
			}
		case *ast.RangeStmt:
			if isChan(pass.TypesInfo.TypeOf(n.X)) {
				why = "a range over a channel"
			}
		case *ast.CallExpr:
			why = blockingCall(pass, blocks, n)
		}
		return true
	})
	return why
}

// blockingCall classifies one call: "" when it cannot block, otherwise
// a short description of the blocking construct.
func blockingCall(pass *analysis.Pass, blocks map[*types.Func]string, call *ast.CallExpr) string {
	callee := staticCallee(pass.TypesInfo, call)
	if callee == nil {
		return "" // dynamic: out of static scope
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	if pass.InModule(path) {
		if _, local := blocks[callee]; local && callee.Pkg() == pass.Pkg {
			return "a call to " + callee.Name() + ", which may block"
		}
		if callee.Pkg() != pass.Pkg && pass.ImportedFact(factBlocks+analysis.FuncKey(callee)) {
			return "a call to " + path + "." + callee.Name() + ", which may block"
		}
		return ""
	}
	if callee.Type().(*types.Signature).Recv() != nil {
		return "" // methods on stdlib values (bytes.Buffer, binary.LittleEndian) stay allowed
	}
	switch {
	case path == "os", path == "net" && !netPure[callee.Name()]:
		return "a call to " + path + "." + callee.Name()
	case path == "io" && ioPumps[callee.Name()]:
		return "a call to io." + callee.Name()
	}
	return ""
}

// checker walks one function looking for lock regions.
type checker struct {
	pass   *analysis.Pass
	blocks map[*types.Func]string
	hot    map[*types.Func]bool
}

// scanBlocks descends into every statement list, tracking regions per
// block.
func (c *checker) scanBlocks(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		c.scanList(list)
		return true
	})
}

// scanList finds Lock/Unlock pairs within one statement list and audits
// the statements between them. Nested statements are covered because
// the audit walks whole statements; nested statement lists are visited
// again by scanBlocks, so an inner Lock opens its own region.
func (c *checker) scanList(list []ast.Stmt) {
	for i, stmt := range list {
		mu, kind := c.lockCall(stmt)
		if mu == "" {
			continue
		}
		end := len(list)
		deferred := kind == lockDeferred
		if !deferred {
			for j := i + 1; j < len(list); j++ {
				if c.unlockCall(list[j]) == mu {
					end = j
					break
				}
			}
		}
		for j := i + 1; j < end; j++ {
			c.auditStmt(list[j], mu)
		}
	}
}

type lockKind int

const (
	lockNone lockKind = iota
	lockPlain
	lockDeferred
)

// lockCall matches `x.Lock()` / `x.RLock()` statements (and the
// `x.Lock(); defer x.Unlock()` idiom's first half). It returns the
// rendered mutex expression and how the region ends.
func (c *checker) lockCall(stmt ast.Stmt) (string, lockKind) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", lockNone
	}
	mu, name := c.mutexMethod(es.X)
	if mu == "" || (name != "Lock" && name != "RLock") {
		return "", lockNone
	}
	return mu, lockPlain
}

// unlockCall matches `x.Unlock()` / `x.RUnlock()` statements and
// returns the rendered mutex expression.
func (c *checker) unlockCall(stmt ast.Stmt) string {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	mu, name := c.mutexMethod(es.X)
	if name != "Unlock" && name != "RUnlock" {
		return ""
	}
	return mu
}

// mutexMethod matches a call `recv.M()` where recv has type sync.Mutex
// or sync.RWMutex (possibly behind a pointer) and returns the rendered
// receiver and method name.
func (c *checker) mutexMethod(e ast.Expr) (string, string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", ""
	}
	t := s.Recv()
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", ""
	}
	if name := obj.Name(); name != "Mutex" && name != "RWMutex" {
		return "", ""
	}
	return exprString(sel.X), sel.Sel.Name
}

// auditStmt reports blocking constructs anywhere inside one in-region
// statement. The deferred form of the region opener is skipped (it is
// the region's own bookkeeping), as are func literal bodies.
func (c *checker) auditStmt(stmt ast.Stmt, mu string) {
	if ds, ok := stmt.(*ast.DeferStmt); ok {
		if m, name := c.mutexMethod(ds.Call); m == mu && (name == "Unlock" || name == "RUnlock") {
			return
		}
	}
	nonBlocking := make(map[ast.Node]bool)
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if !nonBlocking[n] {
				c.report(n.Pos(), mu, "performs a channel send")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !nonBlocking[n] {
				c.report(n.Pos(), mu, "performs a channel receive")
			}
		case *ast.SelectStmt:
			if !markNonBlocking(n, nonBlocking) {
				c.report(n.Pos(), mu, "selects on channels")
			}
		case *ast.RangeStmt:
			if isChan(c.pass.TypesInfo.TypeOf(n.X)) {
				c.report(n.Pos(), mu, "ranges over a channel")
			}
		case *ast.CallExpr:
			c.auditCall(n, mu)
		}
		return true
	})
}

func (c *checker) auditCall(call *ast.CallExpr, mu string) {
	callee := staticCallee(c.pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	path := callee.Pkg().Path()
	if c.pass.InModule(path) {
		key := analysis.FuncKey(callee)
		isHot := c.hot[callee] || (callee.Pkg() != c.pass.Pkg && c.pass.ImportedFact(factHot+key))
		if isHot {
			c.report(call.Pos(), mu, "calls //p2p:hotpath function "+callee.Name()+"; hot-path work must not run under a lock the packet path contends")
			return
		}
		if why, local := c.blocks[callee]; local && callee.Pkg() == c.pass.Pkg {
			c.report(call.Pos(), mu, "calls "+callee.Name()+", which may block ("+why+")")
			return
		}
		if callee.Pkg() != c.pass.Pkg && c.pass.ImportedFact(factBlocks+key) {
			c.report(call.Pos(), mu, "calls "+path+"."+callee.Name()+", which may block")
		}
		return
	}
	if callee.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch {
	case path == "time" && callee.Name() == "Sleep":
		c.report(call.Pos(), mu, "sleeps")
	case path == "os", path == "net" && !netPure[callee.Name()]:
		c.report(call.Pos(), mu, "calls "+path+"."+callee.Name())
	case path == "io" && ioPumps[callee.Name()]:
		c.report(call.Pos(), mu, "calls io."+callee.Name())
	}
}

func (c *checker) report(pos token.Pos, mu, what string) {
	c.pass.Reportf(pos, what+" while holding "+mu+"; move the blocking work outside the critical section (stage before the Lock, apply under it)")
}

// staticCallee resolves the *types.Func a call statically dispatches
// to, or nil for dynamic calls (func values, interface methods).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				fn, _ := sel.Obj().(*types.Func)
				if fn != nil && isInterfaceMethod(fn) {
					return nil
				}
				return fn
			}
			return nil
		}
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// markNonBlocking reports whether sel has a default clause, and if so
// adds the send or receive heading each of its cases to ops: such a
// select never blocks, so those operations are not blocking constructs.
func markNonBlocking(sel *ast.SelectStmt, ops map[ast.Node]bool) bool {
	hasDefault := false
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		return false
	}
	for _, cl := range sel.Body.List {
		switch comm := cl.(*ast.CommClause).Comm.(type) {
		case *ast.SendStmt:
			ops[comm] = true
		case *ast.ExprStmt:
			ops[unparen(comm.X)] = true
		case *ast.AssignStmt:
			ops[unparen(comm.Rhs[0])] = true
		}
	}
	return true
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Chan)
	return ok
}

// exprString renders a simple receiver expression (identifier and
// selector chains) for diagnostics and Lock/Unlock matching.
func exprString(e ast.Expr) string {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprString(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.IndexExpr:
		if base := exprString(e.X); base != "" {
			return base + "[...]"
		}
	}
	return ""
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
