package navmap

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"webbase/internal/navcalc"
	"webbase/internal/relation"
)

// The JSON persistence format for navigation maps. Maps built once by the
// map builder (or rebuilt by the self-healing repair worker) are saved by
// the webbase designer and loaded at system start; the on-disk form is
// stable, versioned and independent of Go internals.

// FormatVersion identifies the persisted map format. Version 2 adds a
// content fingerprint so a loaded map can be checked for corruption and a
// hot-swapped map can be identified in traces; version 1 files (no
// fingerprint) are still accepted.
const FormatVersion = 2

type mapJSON struct {
	Version     int        `json:"version"`
	Fingerprint string     `json:"fingerprint,omitempty"`
	Name        string     `json:"name"`
	StartURL    string     `json:"start_url,omitempty"`
	StartURLVar string     `json:"start_url_var,omitempty"`
	Schema      []string   `json:"schema"`
	Start       string     `json:"start"`
	Nodes       []nodeJSON `json:"nodes"`
	Edges       []edgeJSON `json:"edges"`
}

type nodeJSON struct {
	ID      string       `json:"id"`
	Title   string       `json:"title,omitempty"`
	IsData  bool         `json:"is_data,omitempty"`
	Extract *extractJSON `json:"extract,omitempty"`
}

type extractJSON struct {
	Columns  []columnJSON  `json:"columns,omitempty"`
	LinkCols []linkColJSON `json:"link_cols,omitempty"`
	EnvCols  []envColJSON  `json:"env_cols,omitempty"`
	// Pattern is the label–value extraction mode maps no longer have. It
	// is read only so that a map naming it is refused, not decoded as if
	// the field were not there.
	Pattern json.RawMessage `json:"pattern,omitempty"`
}

type columnJSON struct {
	Header string `json:"header"`
	Attr   string `json:"attr"`
	Money  bool   `json:"money,omitempty"`
}

type linkColJSON struct {
	LinkName string `json:"link_name"`
	Attr     string `json:"attr"`
}

type envColJSON struct {
	Var  string `json:"var"`
	Attr string `json:"attr"`
}

type edgeJSON struct {
	From   string     `json:"from"`
	To     string     `json:"to"`
	Action actionJSON `json:"action"`
}

type actionJSON struct {
	Kind     string     `json:"kind"` // "follow" | "follow_var" | "submit"
	LinkName string     `json:"link_name,omitempty"`
	EnvVar   string     `json:"env_var,omitempty"`
	FormName string     `json:"form_name,omitempty"`
	Fills    []fillJSON `json:"fills,omitempty"`
}

type fillJSON struct {
	Field string `json:"field"`
	Var   string `json:"var,omitempty"`
	Const string `json:"const,omitempty"`
}

// encodeJSON builds the persisted form of the map, without a fingerprint.
func (m *Map) encodeJSON() mapJSON {
	out := mapJSON{
		Version:     FormatVersion,
		Name:        m.Name,
		StartURL:    m.StartURL,
		StartURLVar: m.StartURLVar,
		Schema:      append([]string(nil), m.Schema...),
		Start:       string(m.Start),
	}
	for _, n := range m.Nodes() {
		nj := nodeJSON{ID: string(n.ID), Title: n.Title, IsData: n.IsData}
		if n.IsData {
			nj.Extract = encodeExtract(n.Extract)
		}
		out.Nodes = append(out.Nodes, nj)
	}
	for _, e := range m.Edges() {
		out.Edges = append(out.Edges, edgeJSON{
			From: string(e.From), To: string(e.To), Action: encodeAction(e.Action),
		})
	}
	return out
}

// fingerprintOf hashes the persisted form with its fingerprint field
// cleared, so the value is stable across encode/decode and independent of
// on-disk formatting.
func fingerprintOf(j mapJSON) string {
	j.Fingerprint = ""
	data, err := json.Marshal(j)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// Fingerprint returns a stable content hash of the map — the identity the
// VPS registry records when a repaired map is hot-swapped in, and the
// integrity check version-2 map files carry.
func Fingerprint(m *Map) string { return fingerprintOf(m.encodeJSON()) }

// MarshalJSON implements json.Marshaler for Map.
func (m *Map) MarshalJSON() ([]byte, error) {
	out := m.encodeJSON()
	out.Fingerprint = fingerprintOf(out)
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalJSON implements json.Unmarshaler for Map. The decoded map is
// validated.
func (m *Map) UnmarshalJSON(data []byte) error {
	var in mapJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("navmap: decoding map: %w", err)
	}
	if in.Version != 1 && in.Version != FormatVersion {
		return fmt.Errorf("navmap: unsupported map format version %d (want ≤ %d)", in.Version, FormatVersion)
	}
	// Version-2 files carry a content fingerprint; verify it when present.
	// (Version-1 files predate fingerprints and are accepted as-is.)
	if in.Version == FormatVersion && in.Fingerprint != "" {
		if got := fingerprintOf(in); got != in.Fingerprint {
			return fmt.Errorf("navmap: map %s is corrupt: fingerprint %s does not match content (%s)",
				in.Name, in.Fingerprint, got)
		}
	}
	schema, err := relation.ParseSchema(in.Schema)
	if err != nil {
		return fmt.Errorf("navmap: decoding map %s: %w", in.Name, err)
	}
	decoded := New(in.Name, in.StartURL, schema)
	decoded.StartURLVar = in.StartURLVar
	for _, nj := range in.Nodes {
		n := &Node{ID: NodeID(nj.ID), Title: nj.Title, IsData: nj.IsData}
		if nj.Extract != nil {
			if nj.Extract.Pattern != nil {
				return fmt.Errorf("navmap: map %s: node %s extracts by a label–value pattern, which maps no longer support",
					in.Name, nj.ID)
			}
			n.Extract = decodeExtract(nj.Extract)
		}
		decoded.AddNode(n)
	}
	decoded.Start = NodeID(in.Start)
	for _, ej := range in.Edges {
		action, err := decodeAction(ej.Action)
		if err != nil {
			return err
		}
		decoded.AddEdge(NodeID(ej.From), action, NodeID(ej.To))
	}
	if err := decoded.Validate(); err != nil {
		return err
	}
	*m = *decoded
	return nil
}

// EncodeMap renders a map in the persisted (version-2, fingerprinted)
// format — the payload the durable store writes when a repaired map is
// hot-swapped in.
func EncodeMap(m *Map) ([]byte, error) { return m.MarshalJSON() }

// DecodeMap parses and validates a persisted map. Any malformation —
// syntax, fingerprint mismatch, unknown version, graph that fails
// Validate — returns an error; a decoded map is safe to swap in.
func DecodeMap(data []byte) (*Map, error) {
	m := new(Map)
	if err := m.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return m, nil
}

func encodeExtract(s navcalc.ExtractSpec) *extractJSON {
	out := &extractJSON{}
	for _, c := range s.Columns {
		out.Columns = append(out.Columns, columnJSON(c))
	}
	for _, lc := range s.LinkCols {
		out.LinkCols = append(out.LinkCols, linkColJSON(lc))
	}
	for _, ec := range s.EnvCols {
		out.EnvCols = append(out.EnvCols, envColJSON(ec))
	}
	return out
}

func decodeExtract(in *extractJSON) navcalc.ExtractSpec {
	var out navcalc.ExtractSpec
	for _, c := range in.Columns {
		out.Columns = append(out.Columns, navcalc.Column(c))
	}
	for _, lc := range in.LinkCols {
		out.LinkCols = append(out.LinkCols, navcalc.LinkCol(lc))
	}
	for _, ec := range in.EnvCols {
		out.EnvCols = append(out.EnvCols, navcalc.EnvCol(ec))
	}
	return out
}

func encodeAction(a Action) actionJSON {
	out := actionJSON{
		LinkName: a.LinkName, EnvVar: a.EnvVar, FormName: a.FormName,
	}
	switch a.Kind {
	case ActFollowLink:
		out.Kind = "follow"
	case ActFollowVar:
		out.Kind = "follow_var"
	default:
		out.Kind = "submit"
	}
	for _, f := range a.Fills {
		out.Fills = append(out.Fills, fillJSON(f))
	}
	return out
}

func decodeAction(in actionJSON) (Action, error) {
	out := Action{LinkName: in.LinkName, EnvVar: in.EnvVar, FormName: in.FormName}
	switch in.Kind {
	case "follow":
		out.Kind = ActFollowLink
	case "follow_var":
		out.Kind = ActFollowVar
	case "submit":
		out.Kind = ActSubmitForm
	default:
		return Action{}, fmt.Errorf("navmap: unknown action kind %q", in.Kind)
	}
	for _, f := range in.Fills {
		out.Fills = append(out.Fills, navcalc.FieldFill(f))
	}
	return out, nil
}
