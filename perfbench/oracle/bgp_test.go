package oracle

import (
	"reflect"
	"testing"
)

var kb = []Triple{
	{"alice", "type", "Person"},
	{"bob", "type", "Person"},
	{"carol", "type", "Person"},
	{"alice", "bornIn", "Paris"},
	{"bob", "bornIn", "Paris"},
	{"carol", "bornIn", "Rome"},
	{"Paris", "type", "City"},
	{"alice", "knows", "alice"},
	{"alice", "knows", "bob"},
}

func v(name string) Term  { return Term{Var: true, Value: name} }
func c(value string) Term { return Term{Value: value} }

func TestEval(t *testing.T) {
	cases := []struct {
		name string
		q    Query
		want []string
	}{
		{"one pattern", Query{Vars: []string{"?x"}, Patterns: []Pattern{{v("?x"), c("bornIn"), c("Paris")}}},
			[]string{"?x=alice", "?x=bob"}},
		{"join", Query{Vars: []string{"?x", "?c"}, Patterns: []Pattern{
			{v("?x"), c("type"), c("Person")}, {v("?x"), c("bornIn"), v("?c")}, {v("?c"), c("type"), c("City")}}},
			[]string{"?x=alice\t?c=Paris", "?x=bob\t?c=Paris"}},
		{"projection keeps duplicates", Query{Vars: []string{"?c"}, Patterns: []Pattern{{v("?x"), c("bornIn"), v("?c")}}},
			[]string{"?c=Paris", "?c=Paris", "?c=Rome"}},
		{"distinct", Query{Vars: []string{"?c"}, Distinct: true, Patterns: []Pattern{{v("?x"), c("bornIn"), v("?c")}}},
			[]string{"?c=Paris", "?c=Rome"}},
		{"repeated variable", Query{Vars: []string{"?x"}, Patterns: []Pattern{{v("?x"), c("knows"), v("?x")}}},
			[]string{"?x=alice"}},
		{"star", Query{Vars: []string{"*"}, Patterns: []Pattern{{v("?x"), c("knows"), v("?y")}}},
			[]string{"?x=alice\t?y=alice", "?x=alice\t?y=bob"}},
		{"variable predicate", Query{Vars: []string{"?p"}, Patterns: []Pattern{{c("carol"), v("?p"), c("Rome")}}},
			[]string{"?p=bornIn"}},
		{"no solution", Query{Vars: []string{"?x"}, Patterns: []Pattern{{v("?x"), c("bornIn"), c("Oslo")}}}, nil},
	}
	for _, tc := range cases {
		got := Eval(kb, tc.q)
		if len(got) == 0 && len(tc.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestRows(t *testing.T) {
	bs := []map[string]string{{"?x": "b", "?y": "1"}, {"?x": "a", "?y": "2"}}
	want := []string{"?x=a\t?y=2", "?x=b\t?y=1"}
	if got := Rows(bs, []string{"?x", "?y"}); !reflect.DeepEqual(got, want) {
		t.Errorf("Rows = %q, want %q", got, want)
	}
}
