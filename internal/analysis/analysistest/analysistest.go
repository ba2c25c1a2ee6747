// Package analysistest runs a framework analyzer over fixture packages
// and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on top of cilkvet's own
// loader.
//
// Fixtures live in a GOPATH-style tree: testdata/src/<pkgpath>/*.go.
// They may import each other by those paths and may import the standard
// library.  A line that should be diagnosed carries a trailing comment
//
//	x.f = 0 // want `regexp matching the message`
//
// with one quoted regexp per expected diagnostic on that line (double or
// back quotes).  Every diagnostic must be matched by a want on its line
// and every want must match a diagnostic; either direction failing fails
// the test.  The findings come from load.Analyze, the loop cilkvet itself
// runs, so suppressions are honoured by the driver's own code: fixtures
// can assert both that //cilkvet:allow silences a finding and that a
// malformed suppression is itself reported.
package analysistest

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/framework"
	"repro/internal/analysis/load"
)

// lineKey identifies one source line of the fixture tree.
type lineKey struct {
	file string
	line int
}

// want is one expectation parsed from a // want comment.
type want struct {
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture packages under srcdir, applies a through
// load.Analyze and compares the findings to // want comments.
func Run(t *testing.T, srcdir string, a *framework.Analyzer, pkgs ...string) {
	t.Helper()
	res, err := load.LoadFixture(srcdir, pkgs)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}

	wants := make(map[lineKey][]*want)
	for _, pkg := range res.Roots {
		for _, f := range pkg.Files {
			collectWants(t, res.Fset, f, wants)
		}
	}

	findings, err := load.Analyze(res, []*framework.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		key := lineKey{f.Pos.Filename, f.Pos.Line}
		if !matchWant(wants[key], f.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re)
			}
		}
	}
}

// matchWant marks and reports the first unmatched want whose regexp
// matches the message.
func matchWant(ws []*want, message string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every // want comment in f into the wants map.
func collectWants(t *testing.T, fset *token.FileSet, f *ast.File, wants map[lineKey][]*want) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue
			}
			text, ok = strings.CutPrefix(strings.TrimSpace(text), "want ")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			key := lineKey{pos.Filename, pos.Line}
			for _, pat := range parseWantPatterns(t, pos, text) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
				}
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
}

// parseWantPatterns splits the text after "want" into its quoted regexps.
func parseWantPatterns(t *testing.T, pos token.Position, text string) []string {
	t.Helper()
	var pats []string
	for {
		text = strings.TrimSpace(text)
		if text == "" {
			return pats
		}
		quote := text[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: want expectation must be a quoted regexp, got %q", pos, text)
		}
		end := strings.IndexByte(text[1:], quote)
		if end < 0 {
			t.Fatalf("%s: unterminated want regexp: %s", pos, text)
		}
		raw := text[:end+2]
		pat, err := strconv.Unquote(raw)
		if err != nil {
			t.Fatalf("%s: bad want literal %s: %v", pos, raw, err)
		}
		pats = append(pats, pat)
		text = text[end+2:]
	}
}
