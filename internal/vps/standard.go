package vps

import (
	"fmt"

	"webbase/internal/carmaps"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/relation"
)

// handleSpec declares one handle of the standard used-car VPS (Table 3 of
// the paper, extended to all twelve sites).
type handleSpec struct {
	relation  string
	mandatory []string
	selection []string
}

// standardHandles is the Table 3 analogue for the simulated Web. Several
// relations deliberately carry more than one handle with different
// mandatory sets (the paper: "there can be several handles for the same
// relation").
var standardHandles = []handleSpec{
	{"newsday", []string{"Make"}, []string{"Make", "Model"}},
	{"newsday", []string{"Make", "Model"}, []string{"Make", "Model"}},
	{"newsdayCarFeatures", []string{"Url"}, []string{"Url"}},
	{"nyTimes", []string{"Make"}, []string{"Make", "Model"}},
	{"newYorkDaily", []string{"Make"}, []string{"Make"}},
	{"carPoint", []string{"Make"}, []string{"Make", "Model", "ZipCode"}},
	{"autoWeb", []string{"Make"}, []string{"Make", "Model"}},
	{"wwWheels", []string{"Make"}, []string{"Make", "Model"}},
	{"autoConnect", []string{"Make", "Condition"}, []string{"Make", "Model", "Condition"}},
	{"yahooCars", []string{"Make", "Model"}, []string{"Make", "Model"}},
	{"kellys", []string{"Make", "Model", "Condition"}, []string{"Make", "Model", "Year", "Condition"}},
	{"carAndDriver", []string{"Make"}, []string{"Make"}},
	{"carReviews", []string{"Make", "Model"}, []string{"Make", "Model"}},
	{"carFinance", []string{"ZipCode"}, []string{"ZipCode", "Duration"}},
}

// StandardSampleInputs are inputs every form of the standard maps accepts
// (carmaps.SampleInputs).
var StandardSampleInputs = carmaps.SampleInputs

// StandardRegistry builds the VPS of the used-car webbase: every relation
// of the standard navigation maps, with the handles above. Expressions are
// derived from the maps automatically.
func StandardRegistry() (*Registry, error) {
	maps := carmaps.AllMaps()
	reg := NewRegistry()
	exprs := make(map[string]*navcalc.Expression, len(maps))
	for name, m := range maps {
		expr, err := navmap.Translate(m)
		if err != nil {
			return nil, fmt.Errorf("vps: deriving expression for %s: %w", name, err)
		}
		if err := reg.Declare(name, m.Schema); err != nil {
			return nil, err
		}
		// Record the source map so the self-healing repair worker can
		// re-check it against the live site and hot-swap a fixed copy.
		if err := reg.SetBaseMap(name, m); err != nil {
			return nil, err
		}
		exprs[name] = expr
	}
	for _, spec := range standardHandles {
		expr, ok := exprs[spec.relation]
		if !ok {
			return nil, fmt.Errorf("vps: handle spec references unknown map %q", spec.relation)
		}
		if err := reg.AddHandle(&Handle{
			Relation:  spec.relation,
			Mandatory: relation.NewAttrSet(spec.mandatory...),
			Selection: relation.NewAttrSet(spec.selection...),
			Expr:      expr,
		}); err != nil {
			return nil, err
		}
	}
	return reg, nil
}
