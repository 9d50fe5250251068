package core

import (
	"fmt"

	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/sim"
)

// ProtocolName is QMA's canonical registry key.
const ProtocolName = "qma"

// TableKind selects the Q-value storage for QMA nodes.
type TableKind uint8

const (
	// TableFloat is the float64 reference table.
	TableFloat TableKind = iota
	// TableFixed is the Q8.8 integer table (§3.2 embedded variant).
	TableFixed
	// TableQuant is the 8-bit saturating table (§7 future-work variant).
	TableQuant
)

// Options tunes the QMA engines of a scenario. It is the registry options
// type for the "qma" protocol; the zero value (like nil) selects the paper's
// defaults.
type Options struct {
	// Learn are the hyperparameters (zero value selects the paper's
	// α=0.5, γ=0.9, ξ=2).
	Learn qlearn.Params
	// Table selects the Q-value representation.
	Table TableKind
	// Explorer decides ρ; nil selects parameter-based exploration (Fig. 4).
	Explorer qlearn.Explorer
	// StartupSubslots is Δ; 0 selects the default of two frames, negative
	// disables cautious startup.
	StartupSubslots int
	// DisableStartupPunish turns off the §4.3 QCCA/QSend punishments.
	DisableStartupPunish bool
	// ReevalOnDecay enables the policy-reevaluation ablation.
	ReevalOnDecay bool
}

func init() {
	mac.Register(mac.Protocol{
		Name:          ProtocolName,
		Display:       "QMA",
		Validate:      validateOptions,
		ParseOptions:  parseOptions,
		AdoptExplorer: adoptExplorer,
		New: func(cfg mac.Config, opts any, rng *sim.Rand) mac.Engine {
			var o Options
			if opts != nil {
				o = opts.(Options)
			}
			return NewFromOptions(o, cfg, rng)
		},
	})
}

// parseOptions maps -mac-opt key=value pairs onto Options. Learning
// hyperparameters start from the paper's defaults so a single override
// (alpha=0.3) leaves the rest intact.
func parseOptions(kv map[string]string) (any, error) {
	var o Options
	learn := qlearn.DefaultParams()
	touched := false
	fields := mac.LearnParamFields(&learn, &touched)
	fields["table"] = mac.EnumField(func(t TableKind) { o.Table = t },
		map[string]TableKind{"float": TableFloat, "fixed": TableFixed, "quant": TableQuant})
	fields["startup"] = mac.IntField(&o.StartupSubslots)
	if err := mac.ParseKV(ProtocolName, kv, fields); err != nil {
		return nil, err
	}
	if touched {
		o.Learn = learn
	}
	return o, nil
}

// adoptExplorer implements the registry's AdoptExplorer hook for QMA.
func adoptExplorer(opts any, explorer qlearn.Explorer) any {
	var o Options
	if opts != nil {
		o = opts.(Options)
	}
	if o.Explorer == nil {
		o.Explorer = explorer
	}
	return o
}

func validateOptions(opts any) error {
	if opts == nil {
		return nil
	}
	o, ok := opts.(Options)
	if !ok {
		return mac.OptionsError(ProtocolName, opts, Options{})
	}
	if o.Table > TableQuant {
		return fmt.Errorf("core: unknown table kind %d", o.Table)
	}
	return nil
}

// NewFromOptions builds a QMA engine over macCfg from scenario-level options:
// it resolves the table representation and the default hyperparameters
// before delegating to New.
func NewFromOptions(opts Options, macCfg mac.Config, rng *sim.Rand) *Engine {
	subslots := macCfg.Clock.Config().Subslots
	var table qlearn.Table
	learn := opts.Learn
	if learn == (qlearn.Params{}) {
		learn = qlearn.DefaultParams()
	}
	scratch := macCfg.Scratch
	switch opts.Table {
	case TableFixed:
		table = qlearn.NewFixedTableOn(subslots, NumActions, qlearn.DefaultFixedParams(),
			scratch.Int16s(subslots*NumActions))
	case TableQuant:
		table = qlearn.NewQuantTableOn(subslots, NumActions, qlearn.DefaultQuantParams(),
			scratch.Int8s(subslots*NumActions))
	default:
		table = qlearn.NewFloatTableOn(subslots, NumActions, learn,
			scratch.Float64s(subslots*NumActions))
	}
	return New(Config{
		MAC:             macCfg,
		Table:           table,
		Learn:           learn,
		Explorer:        opts.Explorer,
		Rng:             rng,
		StartupSubslots: opts.StartupSubslots,
		StartupPunish:   !opts.DisableStartupPunish,
		ReevalOnDecay:   opts.ReevalOnDecay,
	})
}
