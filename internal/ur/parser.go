package ur

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"webbase/internal/algebra"
	"webbase/internal/relation"
)

// ErrBadQuery is the taxonomy sentinel for malformed query text. Every
// syntax error ParseQuery reports wraps it, so callers (and the HTTP
// server's 400 mapping) can classify with errors.Is instead of matching
// message strings.
var ErrBadQuery = errors.New("ur: bad query")

func badQueryf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadQuery, fmt.Sprintf(format, args...))
}

// ParseQuery parses the ad hoc query syntax the CLI exposes to end users:
//
//	SELECT attr, attr, ...
//	  [WHERE attr op value [AND ...]]
//	  [ORDER BY attr [DESC] [, attr [DESC]]]
//	  [LIMIT n]
//
// where op is one of = != < <= > >=. The right-hand side of a condition is
// a constant (quoted or bare; bare numerics parse as numbers) or, when it
// names an attribute of the universal relation, an attribute-to-attribute
// comparison — which is how "Price < BBPrice" works. Keywords are
// case-insensitive.
func ParseQuery(s *Schema, text string) (Query, error) {
	var q Query
	rest := strings.TrimSpace(text)
	if len(rest) < 6 || !strings.EqualFold(rest[:6], "select") {
		return q, badQueryf("query must start with SELECT: %q", text)
	}
	rest = rest[6:]

	// Peel trailing clauses right to left: LIMIT, then ORDER BY.
	if i := indexFold(rest, "limit"); i >= 0 {
		n, err := strconv.Atoi(strings.TrimSpace(rest[i+5:]))
		if err != nil || n < 0 {
			return q, badQueryf("bad LIMIT in %q", text)
		}
		q.Limit = n
		rest = rest[:i]
	}
	if i := indexFold(rest, "order by"); i >= 0 {
		seen := make(map[string]bool)
		for _, part := range strings.Split(rest[i+8:], ",") {
			if strings.TrimSpace(part) == "" {
				// A trailing comma (or ", ,") yields an empty term.
				// Rejecting it loudly beats silently sorting on fewer
				// keys than the user wrote.
				return q, badQueryf("empty ORDER BY term (trailing comma?) in %q", text)
			}
			fields := strings.Fields(part)
			switch {
			case len(fields) == 1:
				q.OrderBy = append(q.OrderBy, relation.SortKey{Attr: fields[0]})
			case len(fields) == 2 && strings.EqualFold(fields[1], "desc"):
				q.OrderBy = append(q.OrderBy, relation.SortKey{Attr: fields[0], Desc: true})
			case len(fields) == 2 && strings.EqualFold(fields[1], "asc"):
				q.OrderBy = append(q.OrderBy, relation.SortKey{Attr: fields[0]})
			default:
				return q, badQueryf("bad ORDER BY term %q", strings.TrimSpace(part))
			}
			key := q.OrderBy[len(q.OrderBy)-1].Attr
			if seen[key] {
				// A duplicate key is always a typo: the second
				// occurrence can never influence the stable sort.
				return q, badQueryf("duplicate ORDER BY key %q in %q", key, text)
			}
			seen[key] = true
		}
		if len(q.OrderBy) == 0 {
			return q, badQueryf("empty ORDER BY in %q", text)
		}
		rest = rest[:i]
	}

	wherePart := ""
	if i := indexFold(rest, "where"); i >= 0 {
		wherePart = strings.TrimSpace(rest[i+5:])
		rest = rest[:i]
	}
	for _, a := range strings.Split(rest, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		q.Output = append(q.Output, a)
	}
	if len(q.Output) == 0 {
		return q, badQueryf("no output attributes in %q", text)
	}
	if wherePart == "" {
		return q, nil
	}
	for _, clause := range splitFold(wherePart, "and") {
		cond, err := parseCondition(strings.TrimSpace(clause), s.attrs)
		if err != nil {
			return q, err
		}
		q.Conditions = append(q.Conditions, cond)
	}
	return q, nil
}

// ops in length order so that "<=" is tried before "<".
var condOps = []struct {
	text string
	op   algebra.CmpOp
}{
	{"<=", algebra.LE}, {">=", algebra.GE}, {"!=", algebra.NE},
	{"=", algebra.EQ}, {"<", algebra.LT}, {">", algebra.GT},
}

func parseCondition(clause string, attrs map[string]bool) (algebra.Condition, error) {
	for _, o := range condOps {
		i := strings.Index(clause, o.text)
		if i < 0 {
			continue
		}
		lhs := strings.TrimSpace(clause[:i])
		rhs := strings.TrimSpace(clause[i+len(o.text):])
		if lhs == "" || rhs == "" {
			return algebra.Condition{}, badQueryf("malformed condition %q", clause)
		}
		cond := algebra.Condition{Attr: lhs, Op: o.op}
		if unq, quoted := unquote(rhs); quoted {
			cond.Val = relation.String(unq)
		} else if attrs[rhs] {
			cond.Attr2 = rhs
		} else {
			cond.Val = relation.Parse(rhs)
		}
		return cond, nil
	}
	return algebra.Condition{}, badQueryf("no comparison operator in condition %q", clause)
}

func unquote(s string) (string, bool) {
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0] {
		return s[1 : len(s)-1], true
	}
	return s, false
}

// indexFold finds the first case-insensitive occurrence of the word,
// delimited by spaces or string boundaries. It matches in place with
// EqualFold rather than searching a ToLower'd copy: lowering can change
// the byte length of malformed or non-ASCII input, and an index into the
// lowered string is then not a valid index into s (the fuzzer found the
// resulting slice panic). word must be ASCII, so an equal-byte-length
// fold match can only ever be an ASCII match.
func indexFold(s, word string) int {
	lw := len(word)
	for i := 0; i+lw <= len(s); i++ {
		if !strings.EqualFold(s[i:i+lw], word) {
			continue
		}
		beforeOK := i == 0 || s[i-1] == ' '
		after := i + lw
		afterOK := after == len(s) || s[after] == ' '
		if beforeOK && afterOK {
			return i
		}
	}
	return -1
}

// splitFold splits on the standalone word (case-insensitive).
func splitFold(s, word string) []string {
	var out []string
	for {
		i := indexFold(s, word)
		if i < 0 {
			out = append(out, s)
			return out
		}
		out = append(out, s[:i])
		s = s[i+len(word):]
	}
}
