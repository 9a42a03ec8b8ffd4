package circuit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"github.com/guoq-dev/guoq/internal/gate"
)

// OpenQASM 2.0 subset I/O. The reader accepts the dialect produced by the
// writer plus the common constructs found in benchmark files: multiple
// quantum registers (flattened in declaration order), creg/measure/barrier
// (ignored), comments, and constant angle expressions over pi with
// + − * / and parentheses.

// ParseQASM parses an OpenQASM 2.0 (subset) program into a circuit.
func ParseQASM(src string) (*Circuit, error) {
	if strings.Contains(src, "//") {
		src = stripComments(src)
	}
	p := qasmParser{
		regs: map[string]qasmReg{},
		// A gate statement ends at a ';' or at the end of the text and
		// takes at least five bytes ("x [0]"), so both counts bound the
		// gates; the second keeps a run of bare ';' from reserving memory.
		gates: make([]gate.Gate, 0, min(strings.Count(src, ";"), len(src)/6)+1),
	}
	for sn, rest, more := 0, src, true; more; sn++ {
		var raw string
		raw, rest, more = strings.Cut(rest, ";")
		st := strings.TrimSpace(raw)
		if err := p.statement(st); err != nil {
			return nil, fmt.Errorf("qasm: statement %d (%q): %v", sn, st, err)
		}
	}
	return &Circuit{NumQubits: p.total, Gates: p.gates}, nil
}

// stripComments cuts every line of src at its first "//".
func stripComments(src string) string {
	var b strings.Builder
	b.Grow(len(src))
	for rest, more := src, true; more; {
		var line string
		line, rest, more = strings.Cut(rest, "\n")
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line)
		if more {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// qasmParser holds a parse's registers and the gates read so far.
type qasmParser struct {
	regs  map[string]qasmReg // register name -> flattened range
	total int                // qubits declared so far
	gates []gate.Gate
}

// qasmReg is one declared quantum register's slice of the flattened
// qubit space.
type qasmReg struct{ base, size int }

// qasmGate is what a gate name, or one of its aliases, resolves to.
type qasmGate struct {
	name gate.Name
	spec gate.Spec
}

// qasmGates maps every lower-case gate name and alias to its gate.
var qasmGates = func() map[string]qasmGate {
	m := map[string]qasmGate{}
	for _, n := range gate.Names() {
		s, _ := gate.SpecOf(n)
		m[string(n)] = qasmGate{n, s}
	}
	for alias, n := range map[string]gate.Name{
		"u": gate.U3, "u_3": gate.U3, "cnot": gate.CX, "p": gate.U1, "phase": gate.U1,
		"cu1": gate.CP, "cphase": gate.CP, "toffoli": gate.CCX,
	} {
		m[alias] = m[string(n)]
	}
	return m
}()

// statement parses one statement, with the ';' and surrounding space
// removed. Keywords match case-insensitively; the header, creg, barrier,
// measure and reset are skipped.
//
//guoq:hotpath
func (p *qasmParser) statement(st string) error {
	low := strings.ToLower(st)
	switch {
	case st == "":
		return nil
	case strings.HasPrefix(low, "openqasm"), strings.HasPrefix(low, "include"),
		strings.HasPrefix(low, "creg"), strings.HasPrefix(low, "barrier"),
		strings.HasPrefix(low, "measure"), strings.HasPrefix(low, "reset"):
		return nil
	case strings.HasPrefix(low, "qreg"):
		return p.qreg(st[4:])
	}
	return p.gate(st)
}

func (p *qasmParser) qreg(decl string) error {
	name, size, err := parseReg(decl)
	if err != nil {
		return err
	}
	if _, dup := p.regs[name]; dup {
		return fmt.Errorf("duplicate register %q", name)
	}
	if len(p.gates) > 0 {
		return fmt.Errorf("qreg %q declared after gate statements", name)
	}
	if size > math.MaxInt-p.total {
		return fmt.Errorf("qreg %q takes the qubit count past %d", name, math.MaxInt)
	}
	p.regs[name] = qasmReg{base: p.total, size: size}
	p.total += size
	return nil
}

func parseReg(s string) (string, int, error) {
	s = strings.TrimSpace(s)
	lb := strings.Index(s, "[")
	rb := strings.Index(s, "]")
	if lb < 0 || rb < lb {
		return "", 0, fmt.Errorf("malformed register declaration %q", s)
	}
	name := strings.TrimSpace(s[:lb])
	size, err := strconv.Atoi(strings.TrimSpace(s[lb+1 : rb]))
	if err != nil || size <= 0 {
		return "", 0, fmt.Errorf("bad register size in %q", s)
	}
	return name, size, nil
}

// gate parses a gate statement, "name arg, arg" or "name(expr, expr) arg,
// arg", and appends the gate.
//
//guoq:hotpath
func (p *qasmParser) gate(st string) error {
	var name, params, args string
	if i := strings.IndexByte(st, '('); i >= 0 && strings.IndexByte(st[:i], '[') < 0 {
		j := matchParen(st, i)
		if j < 0 {
			return qasmError("unbalanced parens")
		}
		name, params, args = strings.TrimSpace(st[:i]), st[i+1:j], strings.TrimSpace(st[j+1:])
	} else {
		sp := strings.IndexFunc(st, unicode.IsSpace)
		if sp < 0 {
			return qasmError("malformed gate statement")
		}
		name, args = st[:sp], strings.TrimSpace(st[sp:])
	}
	g, ok := qasmGates[strings.ToLower(name)]
	if !ok {
		return qasmError("unknown gate %q", name)
	}

	var ps []float64
	if g.spec.Params > 0 {
		ps = make([]float64, 0, g.spec.Params)
	}
	for rest, more := params, true; more; {
		var arg string
		arg, rest, more = cutTopLevel(rest)
		if !more && strings.TrimSpace(arg) == "" {
			break // a trailing comma, or no parameters at all
		}
		v, err := evalExpr(arg)
		if err != nil {
			return err
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return qasmError("non-finite angle %q", strings.TrimSpace(arg))
		}
		if len(ps) == g.spec.Params {
			return qasmError("gate %s wants %d params, got more", g.name, g.spec.Params)
		}
		ps = append(ps, v)
	}
	if len(ps) != g.spec.Params {
		return qasmError("gate %s wants %d params, got %d", g.name, g.spec.Params, len(ps))
	}

	qs := make([]int, 0, g.spec.Qubits)
	for rest, more := args, true; more; {
		var arg string
		arg, rest, more = cutTopLevel(rest)
		if !more && strings.TrimSpace(arg) == "" {
			break
		}
		q, err := p.qubit(strings.TrimSpace(arg))
		if err != nil {
			return err
		}
		if len(qs) == g.spec.Qubits {
			return qasmError("gate %s wants %d qubits, got more", g.name, g.spec.Qubits)
		}
		for _, prev := range qs {
			if prev == q {
				return qasmError("gate %s repeats a qubit argument", g.name)
			}
		}
		qs = append(qs, q)
	}
	if len(qs) != g.spec.Qubits {
		return qasmError("gate %s wants %d qubits, got %d", g.name, g.spec.Qubits, len(qs))
	}
	p.gates = append(p.gates, gate.Gate{Name: g.name, Qubits: qs, Params: ps})
	return nil
}

// qubit resolves one trimmed argument, "reg[index]", to its flattened
// qubit.
//
//guoq:hotpath
func (p *qasmParser) qubit(a string) (int, error) {
	lb := strings.IndexByte(a, '[')
	rb := strings.IndexByte(a, ']')
	if lb < 0 || rb < lb {
		return 0, qasmError("malformed qubit arg %q (whole-register args unsupported)", a)
	}
	if rb != len(a)-1 {
		return 0, qasmError("text %q after qubit argument %q (missing comma?)", a[rb+1:], a[:rb+1])
	}
	rname := strings.TrimSpace(a[:lb])
	reg, ok := p.regs[rname]
	if !ok {
		return 0, qasmError("unknown register %q", rname)
	}
	idx, err := strconv.Atoi(strings.TrimSpace(a[lb+1 : rb]))
	if err != nil {
		return 0, qasmError("bad qubit index in %q", a)
	}
	if idx < 0 || idx >= reg.size {
		return 0, qasmError("qubit index %d out of range for %s[%d]", idx, rname, reg.size)
	}
	return reg.base + idx, nil
}

// qasmError builds a statement's parse error, out of line so that the
// hot-path statement scan stays free of fmt.
func qasmError(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func matchParen(s string, open int) int {
	depth := 0
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				return i
			}
		}
	}
	return -1
}

// cutTopLevel cuts s at its first comma outside parentheses.
func cutTopLevel(s string) (before, after string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				return s[:i], s[i+1:], true
			}
		}
	}
	return s, "", false
}

// evalExpr evaluates a constant angle expression: numbers, pi, + − * /,
// unary minus, parentheses.
func evalExpr(s string) (float64, error) {
	p := &exprParser{src: strings.TrimSpace(s)}
	v, err := p.parseSum()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return 0, fmt.Errorf("trailing input in expression %q", s)
	}
	return v, nil
}

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *exprParser) parseSum() (float64, error) {
	v, err := p.parseProduct()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return v, nil
		}
		switch p.src[p.pos] {
		case '+':
			p.pos++
			w, err := p.parseProduct()
			if err != nil {
				return 0, err
			}
			v += w
		case '-':
			p.pos++
			w, err := p.parseProduct()
			if err != nil {
				return 0, err
			}
			v -= w
		default:
			return v, nil
		}
	}
}

func (p *exprParser) parseProduct() (float64, error) {
	v, err := p.parseUnary()
	if err != nil {
		return 0, err
	}
	for {
		p.skipSpace()
		if p.pos >= len(p.src) {
			return v, nil
		}
		switch p.src[p.pos] {
		case '*':
			p.pos++
			w, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			v *= w
		case '/':
			p.pos++
			w, err := p.parseUnary()
			if err != nil {
				return 0, err
			}
			if w == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			v /= w
		default:
			return v, nil
		}
	}
}

func (p *exprParser) parseUnary() (float64, error) {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '-' {
		p.pos++
		v, err := p.parseUnary()
		return -v, err
	}
	if p.pos < len(p.src) && p.src[p.pos] == '+' {
		p.pos++
		return p.parseUnary()
	}
	return p.parseAtom()
}

func (p *exprParser) parseAtom() (float64, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0, fmt.Errorf("unexpected end of expression")
	}
	if p.src[p.pos] == '(' {
		p.pos++
		v, err := p.parseSum()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return 0, fmt.Errorf("missing closing paren")
		}
		p.pos++
		return v, nil
	}
	if strings.HasPrefix(p.src[p.pos:], "pi") {
		p.pos += 2
		return math.Pi, nil
	}
	start := p.pos
	for p.pos < len(p.src) {
		ch := p.src[p.pos]
		if (ch >= '0' && ch <= '9') || ch == '.' || ch == 'e' || ch == 'E' ||
			((ch == '+' || ch == '-') && p.pos > start && (p.src[p.pos-1] == 'e' || p.src[p.pos-1] == 'E')) {
			p.pos++
			continue
		}
		break
	}
	if start == p.pos {
		return 0, fmt.Errorf("unexpected character %q in expression", p.src[p.pos])
	}
	return strconv.ParseFloat(p.src[start:p.pos], 64)
}

// WriteQASM renders the circuit as an OpenQASM 2.0 program with a single
// register q[n]. Angles take 17 significant digits (the text of %.17g), so
// ParseQASM reads every float64 back bit for bit.
//
//guoq:hotpath
func (c *Circuit) WriteQASM() string {
	var b strings.Builder
	b.Grow(qasmLen(c))
	b.WriteString(qasmHeader)
	var num [24]byte
	if c.NumQubits > 0 {
		// qreg sizes must be positive; a 0-qubit circuit is just the prologue.
		b.WriteString("qreg q[")
		b.Write(strconv.AppendInt(num[:0], int64(c.NumQubits), 10))
		b.WriteString("];\n")
	}
	for _, g := range c.Gates {
		b.WriteString(string(g.Name))
		for i, p := range g.Params {
			if i == 0 {
				b.WriteByte('(')
			} else {
				b.WriteByte(',')
			}
			b.Write(strconv.AppendFloat(num[:0], p, 'g', 17, 64))
		}
		if len(g.Params) > 0 {
			b.WriteByte(')')
		}
		b.WriteByte(' ')
		for i, q := range g.Qubits {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString("q[")
			b.Write(strconv.AppendInt(num[:0], int64(q), 10))
			b.WriteByte(']')
		}
		b.WriteString(";\n")
	}
	return b.String()
}

const qasmHeader = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"

// qasmLen bounds the length of WriteQASM's text, so that it allocates
// once: no qubit index is wider than NumQubits, and no angle is wider than
// 24 bytes ("-1.2345678901234567e-308").
func qasmLen(c *Circuit) int {
	digits := 1
	for n := c.NumQubits; n >= 10; n /= 10 {
		digits++
	}
	size := len(qasmHeader) + len("qreg q[];\n") + digits
	for _, g := range c.Gates {
		size += len(g.Name) + len(" ;\n") + len(g.Qubits)*(len("q[],")+digits)
		if len(g.Params) > 0 {
			size += 1 + len(g.Params)*25
		}
	}
	return size
}
