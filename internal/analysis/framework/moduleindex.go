package framework

import (
	"go/ast"
	"strings"
)

// ObjKey names a package-level object (or a method, as "Recv.Name") in a
// specific package.  It is the key cross-package doc-comment information is
// indexed under; types.Objects are mapped to it with KeyOf.
type ObjKey struct {
	// Pkg is the object's package import path.
	Pkg string
	// Name is the object's name; methods and struct fields use the
	// "Type.Name" form with any pointer receiver stripped.
	Name string
}

// ModuleIndex aggregates the doc-comment information analyzers need across
// package boundaries: deprecation notices (for deprecatedapi) and
// `//cilkvet:nocopy` type directives (for nocopy).  The drivers build one
// index over every package they load and share it between passes.
// Directives that bind only within their own declaration (hotpath) need no
// index; analyzers read them with HasDirective.
type ModuleIndex struct {
	// Deprecated maps objects whose doc comment contains a "Deprecated:"
	// paragraph to the first line of that paragraph.
	Deprecated map[ObjKey]string

	// NoCopy records types whose declarations carry a //cilkvet:nocopy
	// directive.
	NoCopy map[ObjKey]bool
}

// NewModuleIndex returns an empty index.
func NewModuleIndex() *ModuleIndex {
	return &ModuleIndex{
		Deprecated: make(map[ObjKey]string),
		NoCopy:     make(map[ObjKey]bool),
	}
}

// IndexFiles scans one package's parsed files (comments required) and
// records their deprecations and directives under import path pkgPath.
func (idx *ModuleIndex) IndexFiles(pkgPath string, files []*ast.File) {
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil && len(d.Recv.List) == 1 {
					if r := recvTypeName(d.Recv.List[0].Type); r != "" {
						name = r + "." + name
					}
				}
				if msg, ok := deprecationMessage(d.Doc); ok {
					idx.Deprecated[ObjKey{pkgPath, name}] = msg
				}
			case *ast.GenDecl:
				idx.indexGenDecl(pkgPath, d)
			}
		}
	}
}

func (idx *ModuleIndex) indexGenDecl(pkgPath string, d *ast.GenDecl) {
	declMsg, declDep := deprecationMessage(d.Doc)
	declNoCopy := HasDirective(d.Doc, "nocopy")
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			msg, dep := deprecationMessage(s.Doc)
			if !dep {
				msg, dep = declMsg, declDep
			}
			if dep {
				idx.Deprecated[ObjKey{pkgPath, s.Name.Name}] = msg
			}
			if declNoCopy || HasDirective(s.Doc, "nocopy") || HasDirective(s.Comment, "nocopy") {
				idx.NoCopy[ObjKey{pkgPath, s.Name.Name}] = true
			}
		case *ast.ValueSpec:
			msg, dep := deprecationMessage(s.Doc)
			if !dep {
				msg, dep = declMsg, declDep
			}
			if dep {
				for _, n := range s.Names {
					idx.Deprecated[ObjKey{pkgPath, n.Name}] = msg
				}
			}
		}
	}
}

// recvTypeName extracts the bare receiver type name from a receiver type
// expression, unwrapping pointers and type-parameter instantiations.
func recvTypeName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr:
			expr = t.X
		case *ast.IndexListExpr:
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// deprecationMessage extracts the first line of a "Deprecated:" paragraph
// from a doc comment, following the convention pkg.go.dev renders.
func deprecationMessage(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "Deprecated:"); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
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
