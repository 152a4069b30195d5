package core

import (
	"fmt"
	"strings"

	"webbase/internal/ur"
)

// Explain renders how a universal-relation query would be answered,
// without fetching anything: the maximal objects and minimal covers the
// planner chose, each object's optimized algebra expression (the plan the
// evaluator runs, from ur.Schema.Prepare), the binding
// sets of every logical relation involved, and the VPS handles those
// bindings resolve to. It is the paper's whole pipeline made visible.
func (wb *Webbase) Explain(q ur.Query) (string, error) {
	plan, err := wb.UR.Prepare(q, wb.Logical)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "query: %s\n", q)
	fmt.Fprintf(&sb, "universal relation: %s (%d attributes, %d maximal objects)\n",
		wb.UR.Name, len(wb.UR.Hierarchy.AllAttrs()), len(wb.UR.MaximalObjects()))

	logicalSeen := map[string]bool{}
	for i, obj := range plan.Objects {
		fmt.Fprintf(&sb, "\nobject %d: {%s}\n", i+1, strings.Join(obj.Object, ", "))
		fmt.Fprintf(&sb, "  minimal cover: %s\n", strings.Join(obj.Relations, " ⋈ "))
		fmt.Fprintf(&sb, "  expression:    %s\n", obj.Expr)
		for _, r := range obj.Relations {
			logicalSeen[wb.UR.LogicalName(r)] = true
		}
	}

	sb.WriteString("\nlogical relations involved:\n")
	for _, v := range wb.Logical.Views() {
		if !logicalSeen[v.Name] {
			continue
		}
		bs, err := wb.Logical.Bindings(v.Name)
		if err != nil {
			return "", err
		}
		alts := make([]string, len(bs))
		for i, b := range bs {
			alts[i] = b.String()
		}
		fmt.Fprintf(&sb, "  %-12s needs %s\n", v.Name, strings.Join(alts, " or "))
		fmt.Fprintf(&sb, "  %-12s   ≡   %s\n", "", v.Def)
	}

	sb.WriteString("\nVPS handles behind those views:\n")
	for _, ri := range wb.Registry.Relations() {
		used := false
		for _, v := range wb.Logical.Views() {
			if logicalSeen[v.Name] && strings.Contains(v.Def.String(), ri.Name) {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		for _, h := range ri.Handles {
			fmt.Fprintf(&sb, "  %s\n", h)
		}
	}
	return sb.String(), nil
}
