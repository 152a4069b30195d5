package mapbuilder

import (
	"context"
	"testing"

	"webbase/internal/htmlkit"
	"webbase/internal/sites"
	"webbase/internal/web"
)

func TestPageSignatureDistinguishesStructure(t *testing.T) {
	w := sites.BuildWorld()
	fetch := func(u string) string {
		resp, err := w.Server.Fetch(web.NewGet(context.Background(), u))
		if err != nil {
			t.Fatal(err)
		}
		return pageSignature(htmlkit.Parse(resp.Body), resp.URL)
	}
	home := fetch("http://" + sites.NewsdayHost + "/")
	auto := fetch("http://" + sites.NewsdayHost + "/auto")
	if home == auto {
		t.Error("structurally different pages share a signature")
	}
}
