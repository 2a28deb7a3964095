package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerSlotBind checks the interned-slot naming invariant: every signal
// name that reaches the schema — through the bus' typed handle constructors,
// the temporal atom constructors, or a Schema/Trace lookup — must be spelled
// via a named constant (the vehicle.Sig* / elevator.Sig* catalogues), never
// as an inline string literal.  The schema interns any name it is given, so
// a typo in a literal does not fail: it silently creates a fresh slot and a
// monitor that never fires, which is precisely the silent composition drift
// the thesis warns about.  Names built at runtime from variables are
// accepted; only literals (and concatenations containing literals) at the
// call site are flagged.  Deliberate synthetic names carry
// //lint:slotbindok <reason> on the call line.
func analyzerSlotBind() *Analyzer {
	return &Analyzer{
		Name: "slotbind",
		Doc:  "signal names at binding sites must be named constants, not raw literals",
		Run:  runSlotBind,
	}
}

// slotBindTargets describes the functions whose string arguments are signal
// names, keyed by package path, receiver type ("" for package functions) and
// function name; the value lists the name-argument indices.
func slotBindTargets(modPath string) map[[3]string][]int {
	sim := modPath + "/internal/sim"
	temporal := modPath + "/internal/temporal"
	return map[[3]string][]int{
		{sim, "Bus", "NumVar"}:    {0},
		{sim, "Bus", "BoolVar"}:   {0},
		{sim, "Bus", "StringVar"}: {0},

		{temporal, "", "Var"}:         {0},
		{temporal, "", "Compare"}:     {0},
		{temporal, "", "Eq"}:          {0},
		{temporal, "", "Ne"}:          {0},
		{temporal, "", "Lt"}:          {0},
		{temporal, "", "Le"}:          {0},
		{temporal, "", "Gt"}:          {0},
		{temporal, "", "Ge"}:          {0},
		{temporal, "", "CompareVars"}: {0, 2},

		{temporal, "Schema", "Intern"}:    {0},
		{temporal, "Schema", "Lookup"}:    {0},
		{temporal, "Trace", "Series"}:     {0},
		{temporal, "Trace", "BoolSeries"}: {0},
	}
}

func runSlotBind(prog *Program) []Diagnostic {
	targets := slotBindTargets(prog.ModulePath)
	temporalPath := prog.ModulePath + "/internal/temporal"
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		if pkg.Path == temporalPath {
			// The constructors themselves (and the formula parser) handle
			// caller-supplied names; they are the implementation, not a
			// binding site.
			continue
		}
		for _, file := range pkg.Files {
			f := file
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg, call)
				if fn == nil {
					return true
				}
				key, ok := calleeKey(fn)
				if !ok {
					return true
				}
				if args, ok := targets[key]; ok {
					for _, i := range args {
						if i >= len(call.Args) {
							continue
						}
						diags = append(diags, flagRawName(prog, pkg, f, call.Args[i], fn)...)
					}
				}
				return true
			})
		}
	}
	return diags
}

// calleeFunc resolves the statically called function of a call expression
// (nil for builtins, conversions, and dynamic calls through variables).
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeKey derives the (package, receiver, name) lookup key of a function.
func calleeKey(fn *types.Func) ([3]string, bool) {
	if fn.Pkg() == nil {
		return [3]string{}, false
	}
	key := [3]string{fn.Pkg().Path(), "", fn.Name()}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return [3]string{}, false
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return [3]string{}, false
		}
		key[1] = named.Obj().Name()
	}
	return key, true
}

// flagRawName reports the argument when it is (or contains) an inline string
// literal.  Constant identifiers, parameters and computed names pass.
func flagRawName(prog *Program, pkg *Package, f *ast.File, arg ast.Expr, callee *types.Func) []Diagnostic {
	lit := firstStringLiteral(arg)
	if lit == nil {
		return nil
	}
	var diags []Diagnostic
	if pkg.Directives.exempted(prog, f, arg.Pos(), "slotbind", "slotbindok", &diags) {
		return diags
	}
	return append(diags, Diagnostic{
		Pos:      prog.Position(lit.Pos()),
		Analyzer: "slotbind",
		Message: fmt.Sprintf("raw string literal %s binds a signal slot via %s; use the canonical signal-name constant so a typo cannot intern a fresh slot (//lint:slotbindok <reason> to exempt)",
			lit.Value, callee.FullName()),
	})
}

// firstStringLiteral finds an inline string literal inside a name argument:
// the literal itself, or either operand of a concatenation chain.
func firstStringLiteral(expr ast.Expr) *ast.BasicLit {
	switch x := ast.Unparen(expr).(type) {
	case *ast.BasicLit:
		if x.Kind == token.STRING {
			return x
		}
	case *ast.BinaryExpr:
		if lit := firstStringLiteral(x.X); lit != nil {
			return lit
		}
		return firstStringLiteral(x.Y)
	}
	return nil
}
