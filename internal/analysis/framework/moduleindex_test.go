package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const indexSrc = `package p

// Page must not move.
//
//cilkvet:nocopy
type Page struct{}

// Free is unconstrained.
type Free struct{}

// Grouped types take the directive from the group's doc comment.
//
//cilkvet:nocopy
type (
	G1 struct{}
	G2 struct{}
)

// Handle's directive sits in a trailing comment; a func is not indexed.
type Handle struct{} //cilkvet:nocopy

//cilkvet:nocopy
func NotAType() {}
`

func TestModuleIndex(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", indexSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewModuleIndex()
	idx.IndexFiles("example/p", []*ast.File{f})

	if !idx.NoCopy[ObjKey{"example/p", "Page"}] {
		t.Error("Page //cilkvet:nocopy directive not indexed")
	}
	if idx.NoCopy[ObjKey{"example/p", "Free"}] {
		t.Error("Free wrongly indexed as nocopy")
	}
	for _, name := range []string{"G1", "G2", "Handle"} {
		if !idx.NoCopy[ObjKey{"example/p", name}] {
			t.Errorf("%s //cilkvet:nocopy directive not indexed", name)
		}
	}
	if len(idx.NoCopy) != 4 {
		t.Errorf("index = %v, want exactly Page, G1, G2, Handle", idx.NoCopy)
	}
}
