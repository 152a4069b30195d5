package navcalc

import (
	"strings"
	"testing"

	"webbase/internal/relation"
	"webbase/internal/tlogic"
)

// TestVarsListsEveryInputRead: start variable, variable links, variable
// fills (constants are not inputs) and env columns, in the goal and in
// rules the goal reaches only through a call.
func TestVarsListsEveryInputRead(t *testing.T) {
	prog := tlogic.NewProgram()
	collect := tlogic.Call{Rule: "collect"}
	prog.Define("collect", tlogic.Seq(
		Extract(ExtractSpec{Columns: []Column{{Header: "Make", Attr: "Make"}}, EnvCols: []EnvCol{{Var: "Zip", Attr: "Zip"}}}),
		tlogic.Alt(tlogic.Seq(Follow("More"), collect), tlogic.Empty{})))
	expr := &Expression{
		Name:        "dir",
		StartURLVar: "Url",
		Schema:      relation.NewSchema("Make", "Model", "Zip", "Url"),
		Program:     prog,
		Goal:        tlogic.Seq(FollowVar("Make"), Submit("f", Fill("model", "Model"), FillConst("kind", "used")), collect),
	}
	if got := strings.Join(expr.Vars(), ","); got != "Make,Model,Url,Zip" {
		t.Errorf("Vars = %s", got)
	}
	if got := strings.Join(newsdayExpression().Vars(), ","); got != "Featrs,Make,Model" {
		t.Errorf("newsday Vars = %s", got)
	}
}
