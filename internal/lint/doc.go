// Package lint is reprolint: a suite of static analyzers, built only on the
// standard library's go/ast, go/parser and go/types, that prove the engine's
// cross-cutting safety invariants at the source level.  The thesis' central
// claim is that hazards emerge from composition — each constituent looks
// correct in isolation while the composite violates a safety goal — and the
// codebase has grown the same failure mode: the pooled-arena, slot-binding
// and hot-path invariants introduced by earlier refactors span many packages
// and silently lose runtime-test coverage every time a field or signal is
// added.  reprolint makes them machine-checked properties of the source, the
// way ICPA itself statically checks control paths.
//
// The suite ships four analyzers:
//
//   - resetcomplete: every pooled component (a struct whose pointer type
//     implements both sim.Component and sim.Resetter) must restore every
//     mutable field in Reset, so a reused run arena never leaks state from
//     the previous run.  Escape hatch: //lint:resetok reason on the field.
//
//   - slotbind: signal names passed to Bus.NumVar/BoolVar/StringVar, the
//     temporal atom constructors and Schema/Trace lookups must be the
//     canonical signal constants, never raw string literals — a typo
//     silently interns a fresh slot and produces a monitor that never
//     fires.  Escape hatch: //lint:slotbindok reason on the call line.
//
//   - hotpathalloc: functions statically reachable from the per-step hot
//     roots (Registers.CopyFrom, Bus.Commit and LaneBus.Commit,
//     LaneSim.Run, Program.Step and StepLanes, CompiledSuite.Observe,
//     LaneSuite.ObserveLanes and the FastSummaryAt methods) must not
//     contain allocating constructs or string-keyed map index
//     expressions, complementing the runtime AllocsPerRun gates with a
//     source-level proof.  Escape hatch: //lint:allocok reason on the
//     function (the one-time lowering, a cold schema rebind);
//     //lint:hotroot marks additional roots.
//
//   - determinism: the simulation kernel and the component packages must
//     not read wall-clock time, use the global math/rand source, launch
//     goroutines, or let map iteration order feed results — the
//     precondition for idempotent-by-variant-key distributed sweeps.
//     Escape hatch: //lint:detok reason; //lint:deterministic opts a new
//     package into the scope.
//
// Run the suite with:
//
//	go run ./cmd/reprolint ./...
//
// Each escape hatch requires a non-empty justification; a bare directive is
// itself a diagnostic, so exceptions stay documented rather than silent.
package lint
