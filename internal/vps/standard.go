package vps

import (
	"webbase/internal/carmaps"
)

// standardMandatory is the Table 3 analogue for the simulated Web: each
// relation's mandatory sets, one handle each, in registration order.
// Several relations deliberately carry more than one handle (the paper:
// "there can be several handles for the same relation"). The selection
// sets are read off the maps.
var standardMandatory = map[string][][]string{
	"newsday":            {{"Make"}, {"Make", "Model"}},
	"newsdayCarFeatures": {{"Url"}},
	"nyTimes":            {{"Make"}},
	"newYorkDaily":       {{"Make"}},
	"carPoint":           {{"Make"}},
	"autoWeb":            {{"Make"}},
	"wwWheels":           {{"Make"}},
	"autoConnect":        {{"Make", "Condition"}},
	"yahooCars":          {{"Make", "Model"}},
	"kellys":             {{"Make", "Model", "Condition"}},
	"carAndDriver":       {{"Make"}},
	"carReviews":         {{"Make", "Model"}},
	"carFinance":         {{"ZipCode"}},
}

// StandardSampleInputs are inputs every form of the standard maps accepts
// (carmaps.SampleInputs).
var StandardSampleInputs = carmaps.SampleInputs

// StandardRegistry builds the VPS of the used-car webbase: every relation
// of the standard navigation maps, with the handles above.
func StandardRegistry() (*Registry, error) {
	return FromMaps(carmaps.AllMaps(), standardMandatory)
}
