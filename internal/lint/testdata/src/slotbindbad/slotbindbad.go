// Package slotbindbad seeds slotbind violations: inline string literals at
// the binding sites that intern schema slots.
package slotbindbad

import (
	"repro/internal/sim"
	"repro/internal/temporal"
)

func Bind(b *sim.Bus) sim.NumVar {
	return b.NumVar("Speed") // want "raw string literal \"Speed\" binds a signal slot"
}

func Atoms() []temporal.Formula {
	return []temporal.Formula{
		temporal.Var("DoorOpen"),      // want "raw string literal \"DoorOpen\" binds a signal slot"
		temporal.Ge("Speed"+"Req", 1), // want "raw string literal \"Speed\" binds a signal slot"
		temporal.CompareVars(
			"CmdSpeed", // want "raw string literal \"CmdSpeed\" binds a signal slot"
			temporal.OpLe,
			"Limit", // want "raw string literal \"Limit\" binds a signal slot"
		),
	}
}

func Comparison() temporal.Formula {
	return temporal.Compare("Speed", temporal.OpGe, temporal.Number(0)) // want "raw string literal \"Speed\" binds a signal slot"
}

func Lookup(sc *temporal.Schema) (int, bool) {
	return sc.Lookup("Speed") // want "raw string literal \"Speed\" binds a signal slot"
}
