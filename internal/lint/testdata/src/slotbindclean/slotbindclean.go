// Package slotbindclean is the slotbind-clean fixture: every binding site
// spells its signal name through a constant, a parameter, or a documented
// synthetic-name exception.
package slotbindclean

import (
	"repro/internal/sim"
	"repro/internal/temporal"
)

// The canonical signal-name catalogue of this fixture.
const (
	SigSpeed    = "Speed"
	SigLimit    = "Limit"
	SigDoorOpen = "DoorOpen"
)

func Bind(b *sim.Bus) sim.NumVar {
	return b.NumVar(SigSpeed)
}

func Atoms() []temporal.Formula {
	return []temporal.Formula{
		temporal.Var(SigDoorOpen),
		temporal.Ge(SigSpeed, 1),
		temporal.CompareVars(SigSpeed, temporal.OpLe, SigLimit),
		temporal.Compare(SigSpeed, temporal.OpGe, temporal.Number(0)),
	}
}

// Parameterised reads its name from the caller; computed names are fine.
func Parameterised(b *sim.Bus, name string) sim.BoolVar {
	return b.BoolVar(name)
}

// Synthetic documents a deliberately constructed name.
func Synthetic(goal string) temporal.Formula {
	//lint:slotbindok condition variables are namespaced per goal at runtime, not catalogue signals
	return temporal.Var("C:" + goal)
}
