package mapbuilder

import (
	"context"
	"testing"

	"webbase/internal/sites"
	"webbase/internal/web"
)

func TestPageSignatureDistinguishesStructure(t *testing.T) {
	w := sites.BuildWorld()
	fetch := func(u string) string {
		p, err := readPage(w.Server, web.NewGet(context.Background(), u))
		if err != nil {
			t.Fatal(err)
		}
		return pageSignature(p)
	}
	home := fetch("http://" + sites.NewsdayHost + "/")
	auto := fetch("http://" + sites.NewsdayHost + "/auto")
	if home == auto {
		t.Error("structurally different pages share a signature")
	}
}
