package core

import (
	"sort"

	"repro/internal/goals"
	"repro/internal/temporal"
)

// SystemModel is the functional decomposition an ICPA runs against: the
// agents (subsystems, actuators, sensors, environmental agents) and the
// state variables each one monitors and controls.
type SystemModel struct {
	// Name identifies the modelled system.
	Name string

	agents     map[string]goals.Agent
	agentOrder []string
}

// NewSystemModel returns an empty system model.
func NewSystemModel(name string) *SystemModel {
	return &SystemModel{Name: name, agents: make(map[string]goals.Agent)}
}

// AddAgent registers an agent, replacing any previous agent with the same
// name in its original registration position.
func (m *SystemModel) AddAgent(a goals.Agent) {
	if _, ok := m.agents[a.Name]; !ok {
		m.agentOrder = append(m.agentOrder, a.Name)
	}
	m.agents[a.Name] = a
}

// Agent returns the named agent.
func (m *SystemModel) Agent(name string) (goals.Agent, bool) {
	a, ok := m.agents[name]
	return a, ok
}

// ControlSource is one stop along an indirect control path: an agent that
// influences the root variable, the level of indirection at which it was
// found (1 = nearest the root variable) and the on-path variables it
// directly controls.
type ControlSource struct {
	// Agent is the influencing agent's name.
	Agent string
	// Kind is the agent's kind.
	Kind goals.AgentKind
	// Level is the indirection distance from the root variable (1 is the
	// direct/nearest control source).
	Level int
	// Controls lists the on-path variables this agent directly controls.
	Controls []string
	// Inputs lists the variables this agent monitors, i.e. where the path
	// continues outward.
	Inputs []string
}

// ControlPath is the indirect control path of one goal variable: every
// agent that directly or indirectly influences it, by level.
type ControlPath struct {
	// Variable is the root state variable from the system safety goal.
	Variable string
	// Sources are the agents along the path, ordered by level then name.
	Sources []ControlSource
}

// IndirectControlPath traces the indirect control path of one variable
// (ICPA step 2, thesis §4.4.1): the direct controllers of the variable form
// level 1; the controllers of those agents' monitored variables form level
// 2; and so on outward, up to maxDepth levels (0 means unlimited).  Cycles
// are cut by visiting each agent at most once, at its shallowest level.
func (m *SystemModel) IndirectControlPath(variable string, maxDepth int) ControlPath {
	path := ControlPath{Variable: variable}
	visitedAgents := make(map[string]bool)
	frontier := map[string]bool{variable: true}
	level := 0

	for len(frontier) > 0 {
		level++
		if maxDepth > 0 && level > maxDepth {
			break
		}
		// Collect agents controlling any frontier variable.
		type hit struct {
			agent    goals.Agent
			controls map[string]bool
		}
		hits := make(map[string]*hit)
		for _, name := range m.agentOrder {
			a := m.agents[name]
			if visitedAgents[name] {
				continue
			}
			for v := range frontier {
				if a.CanControl(v) {
					h, ok := hits[name]
					if !ok {
						h = &hit{agent: a, controls: make(map[string]bool)}
						hits[name] = h
					}
					h.controls[v] = true
				}
			}
		}
		if len(hits) == 0 {
			break
		}
		names := make([]string, 0, len(hits))
		for n := range hits {
			names = append(names, n)
		}
		sort.Strings(names)

		next := make(map[string]bool)
		for _, n := range names {
			h := hits[n]
			visitedAgents[n] = true
			controls := make([]string, 0, len(h.controls))
			for v := range h.controls {
				controls = append(controls, v)
			}
			sort.Strings(controls)
			src := ControlSource{
				Agent:    n,
				Kind:     h.agent.Kind,
				Level:    level,
				Controls: controls,
				Inputs:   append([]string(nil), h.agent.Monitors...),
			}
			path.Sources = append(path.Sources, src)
			for _, v := range h.agent.Monitors {
				next[v] = true
			}
		}
		frontier = next
	}
	return path
}

// IndirectControlPaths traces the indirect control paths of every state
// variable referenced by the goal's formal definition.
func (m *SystemModel) IndirectControlPaths(g goals.Goal, maxDepth int) []ControlPath {
	var out []ControlPath
	for _, v := range g.Vars() {
		out = append(out, m.IndirectControlPath(v, maxDepth))
	}
	return out
}

// ControlRelationship is one numbered, formally defined indirect control
// relationship recorded during ICPA step 3 (thesis §4.4.2).  Relationships
// become critical assumptions of the decomposition when referenced by the
// goal elaboration.
type ControlRelationship struct {
	// ID is the relationship number used to reference it from the goal
	// elaboration section of the ICPA table.
	ID int
	// Variable is the parent-goal variable whose path this relationship
	// belongs to.
	Variable string
	// Subsystems are the agents whose variables the relationship relates.
	Subsystems []string
	// Formula is the formal definition of the relationship.
	Formula temporal.Formula
	// Comment is the natural-language reading shown in the ICPA table.
	Comment string
}
