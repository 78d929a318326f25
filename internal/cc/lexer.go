// Package cc implements jcc, a small C-subset compiler targeting JVA
// assembly — the reproduction's stand-in for gcc 5.4. It exists so the
// evaluation workloads are *compiled* binaries exhibiting the code shapes
// the paper's analyses confront: stack canaries around frames with arrays,
// jump tables for dense switches (-O2), address-taken functions, PIC global
// access through PC-relative addressing, and calls into the libj runtime
// via the PLT.
//
// Supported language: int (64-bit), char (byte), pointers, fixed-size
// arrays, function pointers (common declarator form), globals with
// initialisers, string literals, the usual statements (if/else, while, for,
// switch, break/continue/return) and operators. No structs, typedefs or
// preprocessor.
package cc

import (
	"fmt"
	"strconv"
	"strings"
)

// tokKind enumerates token kinds.
type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tNum
	tStr
	tChar
	tPunct // operators and punctuation; Val holds the spelling
	tKw    // keyword; Val holds the spelling
)

type token struct {
	kind tokKind
	val  string
	num  int64
	line int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "<eof>"
	case tNum:
		return fmt.Sprintf("%d", t.num)
	case tStr:
		return strconv.Quote(t.val)
	}
	return t.val
}

var keywords = map[string]bool{
	"int": true, "char": true, "void": true, "if": true, "else": true,
	"while": true, "for": true, "do": true, "return": true, "break": true,
	"continue": true, "switch": true, "case": true, "default": true,
	"sizeof": true, "static": true, "extern": true,
}

// punctuations is the set of operator and punctuation spellings, at most
// three bytes long.
var punctuations = map[string]bool{
	"<<=": true, ">>=": true, "...": true, "==": true, "!=": true, "<=": true,
	">=": true, "&&": true, "||": true, "<<": true, ">>": true, "+=": true,
	"-=": true, "*=": true, "/=": true, "%=": true, "&=": true, "|=": true,
	"^=": true, "++": true, "--": true, "->": true, "+": true, "-": true,
	"*": true, "/": true, "%": true, "&": true, "|": true, "^": true, "~": true,
	"!": true, "<": true, ">": true, "=": true, "(": true, ")": true, "{": true,
	"}": true, "[": true, "]": true, ";": true, ",": true, ":": true, "?": true,
}

// lexError is a scanning diagnostic.
type lexError struct {
	line int
	msg  string
}

func (e *lexError) Error() string { return fmt.Sprintf("cc: line %d: %s", e.line, e.msg) }

// lex scans src into tokens.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= n {
				return nil, &lexError{line, "unterminated block comment"}
			}
			i += 2
		case c == '"':
			j := i + 1
			for j < n && src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j >= n {
				return nil, &lexError{line, "unterminated string literal"}
			}
			s, err := strconv.Unquote(src[i : j+1])
			if err != nil {
				return nil, &lexError{line, "bad string literal: " + err.Error()}
			}
			toks = append(toks, token{kind: tStr, val: s, line: line})
			i = j + 1
		case c == '\'':
			j := i + 1
			for j < n && src[j] != '\'' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			if j >= n {
				return nil, &lexError{line, "unterminated character literal"}
			}
			s, err := strconv.Unquote(`"` + strings.ReplaceAll(src[i+1:j], `"`, `\"`) + `"`)
			if err != nil || len(s) != 1 {
				return nil, &lexError{line, "bad character literal"}
			}
			toks = append(toks, token{kind: tChar, num: int64(s[0]), line: line})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < n && (isAlnum(src[j])) {
				j++
			}
			v, err := strconv.ParseInt(src[i:j], 0, 64)
			if err != nil {
				return nil, &lexError{line, "bad number " + src[i:j]}
			}
			toks = append(toks, token{kind: tNum, num: v, line: line})
			i = j
		case isIdentStart(c):
			j := i
			for j < n && isAlnum(src[j]) {
				j++
			}
			word := src[i:j]
			k := tIdent
			if keywords[word] {
				k = tKw
			}
			toks = append(toks, token{kind: k, val: word, line: line})
			i = j
		default:
			// The longest spelling wins: a<<=b is a, <<=, b.
			k := min(3, n-i)
			for k > 0 && !punctuations[src[i:i+k]] {
				k--
			}
			if k == 0 {
				return nil, &lexError{line, fmt.Sprintf("unexpected character %q", c)}
			}
			toks = append(toks, token{kind: tPunct, val: src[i : i+k], line: line})
			i += k
		}
	}
	toks = append(toks, token{kind: tEOF, line: line})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isAlnum(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == 'x' || c == 'X'
}
