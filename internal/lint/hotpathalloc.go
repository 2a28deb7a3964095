package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerHotPathAlloc checks the zero-allocation invariant of the per-step
// hot path: every function statically reachable from the hot roots — the
// register-plane commit (Registers.CopyFrom, Bus.Commit), the shared
// evaluation program (Program.Step, Program.StepLanes, CompiledSuite.Observe,
// LaneSuite.ObserveLanes) and the summary-only classification (the
// FastSummaryAt methods) — must not contain allocating constructs.  The
// runtime AllocsPerRun gates prove particular benchmarks allocation-free;
// this analyzer proves the property for every path through the source,
// including ones no benchmark exercises.
//
// Flagged constructs: make/new, slice and map composite literals, &composite
// literals, func literals (closures), append that does not reassign its own
// first argument, string concatenation, string<->byte-slice conversions,
// interface boxing of non-pointer-shaped values, and string-keyed map index
// expressions (reads and assignments alike): the hot path resolves a name to
// a register slot once, and a per-step string hash is the regression the
// slot-indexed state removed.  Two capacity-safe idioms are recognised:
// self-append (x = append(x, ...)), whose amortised growth is retained
// across runs by the arenas, and make guarded by a cap/len check (grow-only
// scratch buffers).  Calls through interfaces and function values
// cannot be resolved statically and are not traversed; the runtime gates
// remain the backstop for those edges.  Additional roots are declared with
// //lint:hotroot on the function; deliberate exceptions (such as the
// register file's schema-growth slow path) carry //lint:allocok <reason>.
// A well-known root that no longer resolves to a function in its loaded
// package is itself a finding: a deleted or renamed root would otherwise
// silently drop its whole call tree from the check.
func analyzerHotPathAlloc() *Analyzer {
	return &Analyzer{
		Name: "hotpathalloc",
		Doc:  "functions reachable from the per-step hot roots must not allocate",
		Run:  runHotPathAlloc,
	}
}

// hotRootKeys lists the well-known hot-path entry points.
func hotRootKeys(modPath string) [][3]string {
	sim := modPath + "/internal/sim"
	temporal := modPath + "/internal/temporal"
	monitor := modPath + "/internal/monitor"
	return [][3]string{
		{temporal, "Registers", "CopyFrom"},
		{sim, "Bus", "Commit"},
		{sim, "LaneBus", "Commit"},
		{sim, "LaneSim", "Run"},
		{temporal, "Program", "Step"},
		{temporal, "Program", "StepLanes"},
		{monitor, "CompiledSuite", "Observe"},
		{monitor, "LaneSuite", "ObserveLanes"},
		{monitor, "Suite", "FastSummaryAt"},
		{monitor, "CompiledSuite", "FastSummaryAt"},
		{monitor, "LaneSuite", "FastSummaryAt"},
	}
}

// unresolvedRoots reports every well-known root whose package is loaded but
// which resolved to no function in it.  A root in a package the program does
// not contain (a partial load) is not reported.  The finding sits on the
// package clause of the package's first file.
func unresolvedRoots(prog *Program, keys [][3]string, resolved map[[3]string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, k := range keys {
		pkg := prog.Package(k[0])
		if resolved[k] || pkg == nil || len(pkg.Files) == 0 {
			continue
		}
		name := k[2]
		if k[1] != "" {
			name = k[1] + "." + k[2]
		}
		diags = append(diags, Diagnostic{
			Pos:      prog.Position(pkg.Files[0].Package),
			Analyzer: "hotpathalloc",
			Message: fmt.Sprintf("well-known hot root %s.%s no longer resolves to a function; "+
				"update hotRootKeys in internal/lint/hotpathalloc.go", k[0], name),
		})
	}
	return diags
}

// funcNode pairs a function's type object with its declaration site.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

func runHotPathAlloc(prog *Program) []Diagnostic {
	return hotPathAlloc(prog, hotRootKeys(prog.ModulePath))
}

// hotPathAlloc runs the analysis from the given well-known roots.
func hotPathAlloc(prog *Program, keys [][3]string) []Diagnostic {
	index := make(map[*types.Func]*funcNode)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					index[fn] = &funcNode{fn: fn, decl: fd, pkg: pkg}
				}
			}
		}
	}

	// Roots: the well-known entry points plus //lint:hotroot annotations.
	wellKnown := make(map[[3]string]bool)
	for _, k := range keys {
		wellKnown[k] = true
	}
	resolved := make(map[[3]string]bool)
	var queue []*funcNode
	rootOf := make(map[*types.Func]string)
	for fn, node := range index {
		key, ok := calleeKey(fn)
		isRoot := ok && wellKnown[key]
		if isRoot {
			resolved[key] = true
		} else {
			file := fileFor(node.pkg, node.decl.Pos())
			if _, found := node.pkg.Directives.lookup(prog.Fset, file, node.decl.Pos(), "hotroot"); found {
				isRoot = true
			}
		}
		if isRoot {
			rootOf[fn] = fn.FullName()
			queue = append(queue, node)
		}
	}

	diags := unresolvedRoots(prog, keys, resolved)

	// Breadth-first reachability over static call edges, pruned at
	// //lint:allocok functions, checking each function body once.
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		file := fileFor(node.pkg, node.decl.Pos())
		if node.pkg.Directives.exempted(prog, file, node.decl.Pos(), "hotpathalloc", "allocok", &diags) {
			continue
		}
		diags = append(diags, checkAllocFree(prog, node, rootOf[node.fn])...)
		if node.decl.Body == nil {
			continue
		}
		root := rootOf[node.fn]
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(node.pkg, call)
			if callee == nil {
				return true
			}
			target, known := index[callee]
			if !known {
				return true // interface method or out-of-module; not traversed
			}
			if _, seen := rootOf[callee]; !seen {
				rootOf[callee] = root
				queue = append(queue, target)
			}
			return true
		})
	}
	return diags
}

// checkAllocFree scans one reachable function body for allocating constructs.
func checkAllocFree(prog *Program, node *funcNode, root string) []Diagnostic {
	if node.decl.Body == nil {
		return nil
	}
	pkg := node.pkg
	var diags []Diagnostic
	report := func(pos token.Pos, construct string) {
		diags = append(diags, Diagnostic{
			Pos:      prog.Position(pos),
			Analyzer: "hotpathalloc",
			Message: fmt.Sprintf("%s in %s, reachable from hot-path root %s; the per-step hot path must not allocate (//lint:allocok <reason> on the function to exempt)",
				construct, node.fn.FullName(), root),
		})
	}

	guarded := capGuardedRanges(pkg, node.decl.Body)
	inGuard := func(pos token.Pos) bool {
		for _, r := range guarded {
			if r[0] <= pos && pos <= r[1] {
				return true
			}
		}
		return false
	}
	selfAppends := selfAppendCalls(node.decl.Body)

	sig, _ := node.fn.Type().(*types.Signature)

	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			report(x.Pos(), "function literal (closure allocation)")
			return false // the closure body runs elsewhere; edges are dynamic
		case *ast.CompositeLit:
			switch pkg.Info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				report(x.Pos(), "slice composite literal")
			case *types.Map:
				report(x.Pos(), "map composite literal")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					report(x.Pos(), "address of composite literal")
				}
			}
		case *ast.IndexExpr:
			if m, ok := pkg.Info.TypeOf(x.X).Underlying().(*types.Map); ok && isStringType(m.Key()) {
				diags = append(diags, Diagnostic{
					Pos:      prog.Position(x.Pos()),
					Analyzer: "hotpathalloc",
					Message: fmt.Sprintf("string-keyed map index in %s, reachable from hot-path root %s; the per-step hot path must read resolved slots, not hash a name (//lint:allocok <reason> on the function to exempt a cold path)",
						node.fn.FullName(), root),
				})
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(pkg.Info.TypeOf(x)) {
				report(x.Pos(), "string concatenation")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(pkg.Info.TypeOf(x.Lhs[0])) {
				report(x.Pos(), "string concatenation")
			}
			diags = append(diags, boxingInAssign(prog, node, x, root)...)
		case *ast.ReturnStmt:
			if sig != nil {
				diags = append(diags, boxingInReturn(prog, node, x, sig, root)...)
			}
		case *ast.CallExpr:
			switch callee := pkg.Info.Uses[calleeIdent(x)].(type) {
			case *types.Builtin:
				switch callee.Name() {
				case "make", "new":
					if !inGuard(x.Pos()) {
						report(x.Pos(), callee.Name())
					}
				case "append":
					if !selfAppends[x] {
						report(x.Pos(), "append outside the x = append(x, ...) idiom")
					}
				}
			default:
				diags = append(diags, allocatingConversion(prog, node, x, root)...)
				if fn := calleeFunc(pkg, x); fn != nil {
					diags = append(diags, boxingInCall(prog, node, x, fn, root)...)
				}
			}
		}
		return true
	})
	return diags
}

// calleeIdent returns the identifier a call's function expression resolves
// through (nil for non-identifier callees).
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	return id
}

// capGuardedRanges collects the body ranges of if statements whose condition
// consults cap or len — the grow-only scratch-buffer idiom, where make runs
// only when capacity was exceeded.
func capGuardedRanges(pkg *Package, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || ifStmt.Cond == nil {
			return true
		}
		usesCap := false
		ast.Inspect(ifStmt.Cond, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				if b, ok := pkg.Info.Uses[calleeIdent(call)].(*types.Builtin); ok {
					if b.Name() == "cap" || b.Name() == "len" {
						usesCap = true
					}
				}
			}
			return !usesCap
		})
		if usesCap {
			out = append(out, [2]token.Pos{ifStmt.Body.Pos(), ifStmt.Body.End()})
		}
		return true
	})
	return out
}

// selfAppendCalls finds append calls in the amortised self-append idiom
// x = append(x, ...), whose backing array growth is retained by the arena.
func selfAppendCalls(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id := calleeIdent(call); id == nil || id.Name != "append" {
			return true
		}
		if types.ExprString(assign.Lhs[0]) == types.ExprString(call.Args[0]) {
			out[call] = true
		}
		return true
	})
	return out
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// allocatingConversion flags string <-> byte/rune-slice conversions, which
// copy their operand.
func allocatingConversion(prog *Program, node *funcNode, call *ast.CallExpr, root string) []Diagnostic {
	pkg := node.pkg
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return nil
	}
	to := tv.Type
	from := pkg.Info.TypeOf(call.Args[0])
	if from == nil {
		return nil
	}
	toStr, fromStr := isStringType(to), isStringType(from)
	toSlice := isByteOrRuneSlice(to)
	fromSlice := isByteOrRuneSlice(from)
	if (toStr && fromSlice) || (toSlice && fromStr) {
		return []Diagnostic{{
			Pos:      prog.Position(call.Pos()),
			Analyzer: "hotpathalloc",
			Message: fmt.Sprintf("string/byte-slice conversion in %s, reachable from hot-path root %s; the per-step hot path must not allocate (//lint:allocok <reason> on the function to exempt)",
				node.fn.FullName(), root),
		}}
	}
	return nil
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// boxesWhenConvertedToInterface reports whether storing a value of type t in
// an interface allocates: every non-pointer-shaped value does.
func boxesWhenConvertedToInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	if b, ok := t.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Chan, *types.Map:
		return false
	}
	return true
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func boxingDiag(prog *Program, node *funcNode, pos token.Pos, root string) Diagnostic {
	return Diagnostic{
		Pos:      prog.Position(pos),
		Analyzer: "hotpathalloc",
		Message: fmt.Sprintf("interface boxing of a non-pointer value in %s, reachable from hot-path root %s; the per-step hot path must not allocate (//lint:allocok <reason> on the function to exempt)",
			node.fn.FullName(), root),
	}
}

// boxingInCall flags arguments whose value is boxed into an interface
// parameter.
func boxingInCall(prog *Program, node *funcNode, call *ast.CallExpr, fn *types.Func, root string) []Diagnostic {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var diags []Diagnostic
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if len(call.Args) == params.Len() && call.Ellipsis != token.NoPos {
				pt = params.At(params.Len() - 1).Type() // slice passed through
			} else if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if isInterface(pt) && boxesWhenConvertedToInterface(node.pkg.Info.TypeOf(arg)) {
			diags = append(diags, boxingDiag(prog, node, arg.Pos(), root))
		}
	}
	return diags
}

// boxingInAssign flags assignments that box a non-pointer value into an
// interface-typed variable or field.
func boxingInAssign(prog *Program, node *funcNode, assign *ast.AssignStmt, root string) []Diagnostic {
	if assign.Tok == token.DEFINE || len(assign.Lhs) != len(assign.Rhs) {
		return nil // := takes the RHS type; no conversion occurs
	}
	pkg := node.pkg
	var diags []Diagnostic
	for i, lhs := range assign.Lhs {
		if isInterface(pkg.Info.TypeOf(lhs)) && boxesWhenConvertedToInterface(pkg.Info.TypeOf(assign.Rhs[i])) {
			diags = append(diags, boxingDiag(prog, node, assign.Rhs[i].Pos(), root))
		}
	}
	return diags
}

// boxingInReturn flags return values boxed into interface results.
func boxingInReturn(prog *Program, node *funcNode, ret *ast.ReturnStmt, sig *types.Signature, root string) []Diagnostic {
	results := sig.Results()
	if results.Len() == 0 || len(ret.Results) != results.Len() {
		return nil
	}
	var diags []Diagnostic
	for i, expr := range ret.Results {
		if isInterface(results.At(i).Type()) && boxesWhenConvertedToInterface(node.pkg.Info.TypeOf(expr)) {
			diags = append(diags, boxingDiag(prog, node, expr.Pos(), root))
		}
	}
	return diags
}
