package circuit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"github.com/guoq-dev/guoq/internal/gate"
)

// OpenQASM 2.0 subset I/O. The reader accepts the dialect produced by the
// writer plus the common constructs found in benchmark files: multiple
// quantum registers (flattened in declaration order), creg/measure/barrier
// (ignored), comments, and constant angle expressions over pi with
// + − * / and parentheses.
//
// ParseQASM is one forward scanner over the bytes. A statement runs to its
// ';' or to the end of the text. A comment runs from "//" to the end of its
// line and reads as if it were deleted, wherever it falls, even inside a
// name or a number. Keywords and gate names are matched in place, folding
// case as strings.ToLower does (so "İd" reads as "id"), and every space
// unicode.IsSpace knows separates. A parameter that is a plain number goes
// straight to strconv.ParseFloat, once per distinct text (numberMemo); any
// other expression goes to evalExpr. The gates' qubits and parameters are
// collected in pooled scratch arrays and, once the text is read, copied
// into one array each of the exact size, which the gates' slices share
// with their capacity capped at their length. A rejected statement is
// sliced out of the text again only to name it in the error.
//
// WriteQASM appends into one buffer sized by qasmLen and returns it as a
// string without a copy. Within one call it formats a repeated angle once:
// angleMemo, a small direct-mapped table keyed by an angle's bits and
// compared in full, remembers where the angle's text was written, and a
// repeat copies those bytes, unless another angle has taken its slot
// since. Compiled circuits repeat most of their angles.
//
// reference_test.go keeps the fmt-based parser and writer that this codec
// replaced, as oracles: FuzzParseQASMMatchesReference requires the same
// programs accepted and the same circuits read, bit for bit, and
// TestWriteQASMMatchesReference and FuzzWriteQASMMatchesReference the same
// bytes written.

// ParseQASM parses an OpenQASM 2.0 (subset) program into a circuit.
func ParseQASM(src string) (*Circuit, error) {
	sc := qasmScratch.Get().(*qasmArgs)
	defer qasmScratch.Put(sc)
	p := qasmParser{
		src:  src,
		args: sc,
		// A gate statement ends at a ';' or at the end of the text and
		// takes at least five bytes ("x [0]"), so both counts bound the
		// gates; the second keeps a run of bare ';' from reserving memory.
		gates: make([]gate.Gate, 0, min(strings.Count(src, ";"), len(src)/6)+1),
	}
	sc.qubits, sc.params = sc.qubits[:0], sc.params[:0]
	for sn := 0; ; sn++ {
		start := p.pos
		if err := p.statement(); err != nil {
			return nil, fmt.Errorf("qasm: statement %d (%q): %v", sn, statementText(src[start:]), err)
		}
		if p.pos == len(src) {
			break
		}
		p.pos++ // the ';'
	}
	// Every gate's slices point into the scratch arrays; move them, in
	// order, into two arrays of the exact size.
	qs := append([]int(nil), sc.qubits...)
	ps := append([]float64(nil), sc.params...)
	for i := range p.gates {
		g := &p.gates[i]
		n := len(g.Qubits)
		g.Qubits, qs = qs[:n:n], qs[n:]
		if n = len(g.Params); n > 0 {
			g.Params, ps = ps[:n:n], ps[n:]
		}
	}
	return &Circuit{NumQubits: p.total, Gates: p.gates}, nil
}

// qasmArgs collects a parse's qubit and parameter arguments, in the order
// of its gates, before they are copied out at their exact size.
type qasmArgs struct {
	qubits []int
	params []float64
}

// qasmScratch pools qasmArgs across parses.
var qasmScratch = sync.Pool{New: func() any { return new(qasmArgs) }}

// qasmParser is the scanner's state: the text and the position in it, the
// registers, and the gates read so far.
type qasmParser struct {
	src      string
	pos      int
	comments int // comments skipped so far; a change marks a text to clean

	regs     map[string]qasmReg // register name -> flattened range
	total    int                // qubits declared so far
	lastName string             // the register the last qubit argument named
	last     qasmReg
	lastOK   bool

	gates []gate.Gate
	args  *qasmArgs

	names   [4]namedGate // gate names read lately, as written
	nameAt  int          // the next entry of names to replace
	numbers numberMemo
}

// namedGate is a gate name as the text spells it, and its gate.
type namedGate struct {
	text string
	g    qasmGate
}

// numberMemo remembers plain numbers read lately, by their text, so that a
// repeated angle is converted once: a direct-mapped table whose keys are
// compared in full.
type numberMemo [1 << memoBits]struct {
	text string
	v    float64
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

// qasmKeywords holds the statement keywords by their first letter: qreg,
// and those of the statements the reader skips.
var qasmKeywords = [utf8.RuneSelf]string{
	'q': "qreg",
	'o': "openqasm", 'i': "include", 'c': "creg", 'b': "barrier", 'm': "measure", 'r': "reset",
}

// statement reads one statement and leaves p.pos on its ';' or at the end
// of the text. Keywords start a statement in any case; the header, creg,
// barrier, measure and reset are skipped.
//
//guoq:hotpath
func (p *qasmParser) statement() error {
	p.skipSpace()
	if p.atEnd() {
		return nil
	}
	switch kw, end := p.keyword(); kw {
	case "":
		return p.gate()
	case "qreg":
		p.pos = end
		return p.qreg()
	}
	p.skipStatement()
	return nil
}

// keyword returns the keyword that starts the statement at p.pos, and
// where it ends, or "".
func (p *qasmParser) keyword() (string, int) {
	if b := p.src[p.pos]; b < utf8.RuneSelf {
		if kw := qasmKeywords[lower(b)]; kw != "" {
			if end := p.prefixFold(kw); end >= 0 {
				return kw, end
			}
		}
		return "", 0
	}
	// Outside ASCII, only 'İ' and 'K' fold into ASCII letters.
	for _, kw := range qasmKeywords {
		if kw == "" {
			continue
		}
		if end := p.prefixFold(kw); end >= 0 {
			return kw, end
		}
	}
	return "", 0
}

// qreg reads a register declaration after its keyword: a name, then its
// size in brackets. The rest of the statement is ignored.
func (p *qasmParser) qreg() error {
	p.skipSpace()
	name, _, err := p.regName(false, false)
	if err != nil {
		return err
	}
	size, err := p.index()
	if err != nil || size <= 0 {
		return fmt.Errorf("bad register size for %q", name)
	}
	p.skipStatement()
	if _, dup := p.regs[name]; dup {
		return fmt.Errorf("duplicate register %q", name)
	}
	if len(p.gates) > 0 {
		return fmt.Errorf("qreg %q declared after gate statements", name)
	}
	if size > math.MaxInt-p.total {
		return fmt.Errorf("qreg %q takes the qubit count past %d", name, math.MaxInt)
	}
	if p.regs == nil {
		p.regs = map[string]qasmReg{}
	}
	p.regs[name] = qasmReg{base: p.total, size: size}
	p.total += size
	return nil
}

// gate reads a gate statement, "name arg, arg" or "name(expr, expr) arg,
// arg", and appends the gate. A '(' before the first '[' opens the
// parameter list, so the name is everything before it.
//
//guoq:hotpath
func (p *qasmParser) gate() error {
	start := p.pos
	for p.pos < len(p.src) {
		b := p.src[p.pos]
		if qasmPlain[b] || b == ',' || b == ')' || b == ']' || b == '/' && !p.atComment() {
			p.pos++
			continue
		}
		if b >= utf8.RuneSelf {
			if space, w := p.runeAt(); !space {
				p.pos += w
				continue
			}
		}
		break
	}
	name := p.src[start:p.pos]
	if p.pos < len(p.src) && p.src[p.pos] == '[' {
		return qasmError("malformed gate statement")
	}
	p.skipSpace()
	if p.atEnd() {
		return qasmError("malformed gate statement")
	}
	g, ok := p.gateNamed(name)
	if !ok {
		return qasmError("unknown gate %q", name)
	}

	a := p.args
	parens := p.src[p.pos] == '('
	pm := len(a.params)
	if parens {
		p.pos++
		for {
			v, blank, err := p.param()
			if err != nil {
				return err
			}
			if blank {
				break
			}
			if len(a.params)-pm == g.spec.Params {
				return qasmError("gate %s wants %d params, got more", g.name, g.spec.Params)
			}
			a.params = append(a.params, v)
			if p.src[p.pos] == ')' {
				break
			}
			p.pos++ // the ','
		}
		p.pos++ // the ')'
	}
	if n := len(a.params) - pm; n != g.spec.Params {
		return qasmError("gate %s wants %d params, got %d", g.name, g.spec.Params, n)
	}

	qm := len(a.qubits)
	for first := true; ; first = false {
		p.skipSpace()
		if p.atEnd() {
			break // a trailing comma, or no arguments at all
		}
		q, err := p.qubit(first && !parens)
		if err != nil {
			return err
		}
		if len(a.qubits)-qm == g.spec.Qubits {
			return qasmError("gate %s wants %d qubits, got more", g.name, g.spec.Qubits)
		}
		for _, prev := range a.qubits[qm:] {
			if prev == q {
				return qasmError("gate %s repeats a qubit argument", g.name)
			}
		}
		a.qubits = append(a.qubits, q)
		if p.atEnd() {
			break
		}
		p.pos++ // the ','
	}
	if n := len(a.qubits) - qm; n != g.spec.Qubits {
		return qasmError("gate %s wants %d qubits, got %d", g.name, g.spec.Qubits, n)
	}
	// The slices are placeholders of the right length until ParseQASM
	// moves them out of the scratch.
	var ps []float64
	if g.spec.Params > 0 {
		ps = a.params[pm:]
	}
	p.gates = append(p.gates, gate.Gate{Name: g.name, Qubits: a.qubits[qm:], Params: ps})
	return nil
}

// param reads one gate parameter, up to the ',' or ')' that ends it at its
// own nesting depth, and leaves p.pos there. blank reports an empty last
// parameter, as in "rz()" or "rz(pi,)", which the reader drops.
//
//guoq:hotpath
func (p *qasmParser) param() (v float64, blank bool, err error) {
	// A plain number, as evalExpr's atom scan would cut it, with at most
	// one sign in front: the text WriteQASM writes.
	s, i := p.src, p.pos
	for i < len(s) && asciiSpace(s[i]) {
		i++
	}
	neg := i < len(s) && s[i] == '-'
	if i < len(s) && (s[i] == '-' || s[i] == '+') {
		i++
	}
	num := i
	for i < len(s) {
		if c := s[i]; '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' ||
			(c == '+' || c == '-') && i > num && lower(s[i-1]) == 'e' {
			i++
			continue
		}
		break
	}
	end := i
	for i < len(s) && asciiSpace(s[i]) {
		i++
	}
	if end > num && i < len(s) && (s[i] == ',' || s[i] == ')') {
		text := s[num:end]
		e := &p.numbers[numberSlot(text)]
		if e.text != text {
			v, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return 0, false, err
			}
			e.text, e.v = text, v
		}
		p.pos = i
		if neg {
			return -e.v, false, nil
		}
		return e.v, false, nil
	}

	// Anything else: cut the expression out and hand it to evalExpr.
	start, comments, depth := p.pos, p.comments, 0
scan:
	for ; !p.atEnd(); p.next() {
		switch s[p.pos] {
		case '(':
			depth++
		case ')':
			if depth == 0 {
				break scan
			}
			depth--
		case ',':
			if depth == 0 {
				break scan
			}
		}
	}
	if p.atEnd() {
		return 0, false, qasmError("unbalanced parens")
	}
	expr := s[start:p.pos]
	if p.comments != comments {
		expr = stripComments(expr)
	}
	if s[p.pos] == ')' && strings.TrimSpace(expr) == "" {
		return 0, true, nil
	}
	if v, err = evalExpr(expr); err != nil {
		return 0, false, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false, qasmError("non-finite angle %q", strings.TrimSpace(expr))
	}
	return v, false, nil
}

// qubit reads one qubit argument, "reg[index]", and leaves p.pos on the
// ',' that ends it or at the end of the statement. Parentheses in a
// register name nest, and a comma inside them does not end the argument.
// noParen rejects a '(' before the '[': in the statement's first argument
// it would have opened a parameter list.
//
//guoq:hotpath
func (p *qasmParser) qubit(noParen bool) (int, error) {
	name, depth, err := p.regName(true, noParen)
	if err != nil {
		return 0, err
	}
	idx, err := p.index()
	if err != nil {
		return 0, err
	}
	if !p.lastOK || name != p.lastName {
		reg, ok := p.regs[name]
		if !ok {
			return 0, qasmError("unknown register %q", name)
		}
		p.last, p.lastName, p.lastOK = reg, name, true
	}
	if idx < 0 || idx >= p.last.size {
		return 0, qasmError("qubit index %d out of range for %s[%d]", idx, name, p.last.size)
	}
	after := p.pos
	p.skipSpace()
	if !p.atEnd() && (p.src[p.pos] != ',' || depth != 0) {
		return 0, qasmError("text %q after qubit argument %s[%d] (missing comma?)",
			statementText(p.src[after:]), name, idx)
	}
	return p.last.base + idx, nil
}

// regName reads a register name, the text up to the next '[' with its ends
// trimmed, and moves p.pos past the '['. In a qubit argument (arg set),
// parentheses nest, a ',' outside them ends the argument (so the name is
// missing its '['), and depth is the nesting at the '['.
//
//guoq:hotpath
func (p *qasmParser) regName(arg, noParen bool) (name string, depth int, err error) {
	start, end, comments := p.pos, p.pos, p.comments
	for p.pos < len(p.src) {
		b := p.src[p.pos]
		if qasmPlain[b] {
			p.pos++
			end = p.pos
			continue
		}
		switch {
		case b == '[':
			name = p.src[start:end]
			if p.comments != comments {
				name = stripComments(name)
			}
			p.pos++
			return name, depth, nil
		case b == ']' || b == ';' || arg && b == ',' && depth == 0:
			return "", 0, p.malformed(arg, start)
		case arg && b == '(':
			if noParen {
				return "", 0, qasmError("malformed gate statement")
			}
			depth++
		case arg && b == ')':
			depth--
		case p.atComment():
			p.skipComment()
			continue
		}
		space, w := p.runeAt()
		p.pos += w
		if !space {
			end = p.pos
		}
	}
	return "", 0, p.malformed(arg, start)
}

// malformed is regName's error for the text from start.
func (p *qasmParser) malformed(arg bool, start int) error {
	text := strings.TrimSpace(stripComments(p.src[start:p.pos]))
	if arg {
		return fmt.Errorf("malformed qubit arg %q (whole-register args unsupported)", text)
	}
	return fmt.Errorf("malformed register declaration %q", text)
}

// index reads a register size or a qubit index after its '[', the text up
// to the first ']' as strconv.Atoi reads it trimmed, and moves p.pos past
// the ']'.
//
//guoq:hotpath
func (p *qasmParser) index() (int, error) {
	s, i, v := p.src, p.pos, 0
	for i < len(s) && i-p.pos < 18 && '0' <= s[i] && s[i] <= '9' {
		v = v*10 + int(s[i]-'0')
		i++
	}
	if i > p.pos && i < len(s) && s[i] == ']' {
		p.pos = i + 1
		return v, nil
	}
	start, comments := p.pos, p.comments
	for !p.atEnd() && s[p.pos] != ']' {
		p.next()
	}
	if p.atEnd() {
		return 0, qasmError("missing ']' after %q", strings.TrimSpace(stripComments(s[start:p.pos])))
	}
	text := s[start:p.pos]
	p.pos++
	if p.comments != comments {
		text = stripComments(text)
	}
	v, err := strconv.Atoi(strings.TrimSpace(text))
	if err != nil {
		return 0, qasmError("bad index %q", strings.TrimSpace(text))
	}
	return v, nil
}

// gateNamed resolves a gate name, folding its case as strings.ToLower
// does. The last few names resolve again without a map lookup.
func (p *qasmParser) gateNamed(name string) (qasmGate, bool) {
	for _, n := range p.names {
		if n.text == name && name != "" {
			return n.g, true
		}
	}
	var low [8]byte
	if len(name) > len(low) {
		g, ok := qasmGates[strings.ToLower(name)]
		return g, ok
	}
	for i := 0; i < len(name); i++ {
		b := name[i]
		if b >= utf8.RuneSelf {
			g, ok := qasmGates[strings.ToLower(name)]
			return g, ok
		}
		low[i] = lower(b)
	}
	g, ok := qasmGates[string(low[:len(name)])]
	if ok {
		p.names[p.nameAt] = namedGate{name, g}
		p.nameAt = (p.nameAt + 1) % len(p.names)
	}
	return g, ok
}

// numberSlot is the slot of a number's text in numberMemo, keyed by its
// length and its last eight bytes.
func numberSlot(s string) int {
	h := uint64(len(s))
	if len(s) >= 8 {
		t := s[len(s)-8:]
		h ^= uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
			uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
	} else {
		for i := 0; i < len(s); i++ {
			h = h<<8 | uint64(s[i])
		}
	}
	return memoSlot(h)
}

// prefixFold returns where word ends if the text at p.pos starts with it,
// folding case as strings.ToLower would, or -1.
func (p *qasmParser) prefixFold(word string) int {
	i := p.pos
	for j := 0; j < len(word); j++ {
		if i >= len(p.src) {
			return -1
		}
		if b := p.src[i]; b < utf8.RuneSelf {
			if lower(b) != word[j] {
				return -1
			}
			i++
			continue
		}
		r, w := utf8.DecodeRuneInString(p.src[i:])
		if unicode.ToLower(r) != rune(word[j]) {
			return -1
		}
		i += w
	}
	return i
}

// atEnd reports whether p.pos is at the end of the statement.
func (p *qasmParser) atEnd() bool {
	return p.pos >= len(p.src) || p.src[p.pos] == ';'
}

// atComment reports whether a comment starts at p.pos.
func (p *qasmParser) atComment() bool {
	return p.src[p.pos] == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/'
}

// skipComment moves p.pos to the end of the comment there, the '\n' that
// ends its line (which then reads as a space) or the end of the text.
func (p *qasmParser) skipComment() {
	p.comments++
	if i := strings.IndexByte(p.src[p.pos:], '\n'); i >= 0 {
		p.pos += i
	} else {
		p.pos = len(p.src)
	}
}

// skipStatement moves p.pos to the end of the statement.
func (p *qasmParser) skipStatement() {
	for !p.atEnd() {
		p.next()
	}
}

// next moves past the byte at p.pos, or past the comment that starts
// there.
func (p *qasmParser) next() {
	if p.atComment() {
		p.skipComment()
		return
	}
	p.pos++
}

// skipSpace moves p.pos past spaces and comments.
//
//guoq:hotpath
func (p *qasmParser) skipSpace() {
	for p.pos < len(p.src) {
		switch b := p.src[p.pos]; {
		case asciiSpace(b):
			p.pos++
		case b == '/' && p.atComment():
			p.skipComment()
		case b < utf8.RuneSelf:
			return
		default:
			space, w := p.runeAt()
			if !space {
				return
			}
			p.pos += w
		}
	}
}

// runeAt decodes the character at p.pos: whether unicode.IsSpace holds
// for it, and its width in bytes (1 for a byte that is not UTF-8).
func (p *qasmParser) runeAt() (space bool, w int) {
	if b := p.src[p.pos]; b < utf8.RuneSelf {
		return asciiSpace(b), 1
	}
	r, w := utf8.DecodeRuneInString(p.src[p.pos:])
	return unicode.IsSpace(r), w
}

// qasmPlain marks the ASCII bytes that never end a name: all but spaces
// and "[](),;/".
var qasmPlain = func() (t [256]bool) {
	for b := 0; b < utf8.RuneSelf; b++ {
		t[b] = !asciiSpace(byte(b)) && !strings.ContainsRune("[](),;/", rune(b))
	}
	return t
}()

// asciiSpace reports whether b is one of the ASCII bytes unicode.IsSpace
// accepts: '\t', '\n', '\v', '\f', '\r' and ' '.
func asciiSpace(b byte) bool {
	return b == ' ' || '\t' <= b && b <= '\r'
}

// lower folds an ASCII letter to lower case.
func lower(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// statementText is the statement at the start of s as it reads with its
// comments deleted and its ends trimmed, for an error message.
func statementText(s string) string {
	end := 0
	for end < len(s) && s[end] != ';' {
		if strings.HasPrefix(s[end:], "//") {
			if i := strings.IndexByte(s[end:], '\n'); i >= 0 {
				end += i
			} else {
				end = len(s)
			}
			continue
		}
		end++
	}
	return strings.TrimSpace(stripComments(s[:end]))
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

// qasmError builds a statement's parse error, out of line so that the
// hot-path statement scan stays free of fmt.
func qasmError(format string, args ...any) error {
	return fmt.Errorf(format, args...)
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
	buf := make([]byte, 0, qasmLen(c))
	buf = append(buf, qasmHeader...)
	if c.NumQubits > 0 {
		// qreg sizes must be positive; a 0-qubit circuit is just the prologue.
		buf = append(buf, "qreg q["...)
		buf = strconv.AppendInt(buf, int64(c.NumQubits), 10)
		buf = append(buf, "];\n"...)
	}
	var angles angleMemo
	for _, g := range c.Gates {
		buf = append(buf, g.Name...)
		for i, p := range g.Params {
			if i == 0 {
				buf = append(buf, '(')
			} else {
				buf = append(buf, ',')
			}
			buf = angles.append(buf, p)
		}
		if len(g.Params) > 0 {
			buf = append(buf, ')')
		}
		buf = append(buf, ' ')
		for i, q := range g.Qubits {
			if i > 0 {
				buf = append(buf, ',')
			}
			switch {
			case uint(q) < 10:
				buf = append(buf, 'q', '[', byte('0'+q), ']')
			case uint(q) < 100:
				buf = append(buf, 'q', '[', byte('0'+q/10), byte('0'+q%10), ']')
			default:
				buf = append(buf, "q["...)
				buf = strconv.AppendInt(buf, int64(q), 10)
				buf = append(buf, ']')
			}
		}
		buf = append(buf, ";\n"...)
	}
	// buf is never written again, so the string may share its bytes.
	return unsafe.String(unsafe.SliceData(buf), len(buf))
}

// angleMemo is WriteQASM's record of where, in the text written so far,
// recent angles were formatted: a direct-mapped table keyed by an angle's
// bits. A hit copies the bytes; the key is compared in full, so the text is
// the same as formatting again.
type angleMemo [1 << memoBits]struct {
	bits uint64
	off  int   // where the angle's text starts in the buffer
	n    uint8 // its length; 0 marks an empty slot
}

// append appends v as %.17g formats it.
func (m *angleMemo) append(buf []byte, v float64) []byte {
	bits := math.Float64bits(v)
	e := &m[memoSlot(bits)]
	if e.n > 0 && e.bits == bits {
		return append(buf, buf[e.off:e.off+int(e.n)]...)
	}
	off := len(buf)
	buf = strconv.AppendFloat(buf, v, 'g', 17, 64)
	e.bits, e.off, e.n = bits, off, uint8(len(buf)-off)
	return buf
}

// memoBits sizes the codec's two memo tables, numberMemo and angleMemo, at
// 64 slots each: 1.5 KB of stack apiece.
const memoBits = 6

// memoSlot is a 64-bit key's slot in a memo table: the top bits of a
// Fibonacci hash.
func memoSlot(key uint64) int {
	return int((key * 0x9e3779b97f4a7c15) >> (64 - memoBits))
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
