package framework

import (
	"go/ast"
	"strings"
)

// ObjKey names a package-level object in a specific package.  It is the
// key cross-package doc-comment information is indexed under.
type ObjKey struct {
	// Pkg is the object's package import path.
	Pkg string
	// Name is the object's name.
	Name string
}

// ModuleIndex aggregates the doc-comment information analyzers need across
// package boundaries: `//cilkvet:nocopy` type directives (for nocopy).  The
// loader builds one index over every package it loads and shares it
// between passes.  Directives that bind only within their own declaration
// (hotpath) need no index; analyzers read them with HasDirective.
type ModuleIndex struct {
	// NoCopy records types whose declarations carry a //cilkvet:nocopy
	// directive.
	NoCopy map[ObjKey]bool
}

// NewModuleIndex returns an empty index.
func NewModuleIndex() *ModuleIndex {
	return &ModuleIndex{NoCopy: make(map[ObjKey]bool)}
}

// IndexFiles scans one package's parsed files (comments required) and
// records their directives under import path pkgPath.
func (idx *ModuleIndex) IndexFiles(pkgPath string, files []*ast.File) {
	for _, f := range files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			declNoCopy := HasDirective(d.Doc, "nocopy")
			for _, spec := range d.Specs {
				s, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if declNoCopy || HasDirective(s.Doc, "nocopy") || HasDirective(s.Comment, "nocopy") {
					idx.NoCopy[ObjKey{pkgPath, s.Name.Name}] = true
				}
			}
		}
	}
}

// HasDirective reports whether the comment group contains the cilkvet
// directive `//cilkvet:<name>`.  Directives are machine-readable comments:
// no space after //, exact name match up to whitespace.
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//cilkvet:" + name
	for _, c := range doc.List {
		text := c.Text
		if text == want || strings.HasPrefix(text, want+" ") || strings.HasPrefix(text, want+"\t") {
			return true
		}
	}
	return false
}
