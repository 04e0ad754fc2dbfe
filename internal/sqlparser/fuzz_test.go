package sqlparser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// FuzzNormalizeRoundTrip checks the two invariants the plan cache leans on:
//
//  1. Normalize is a fixed point — normalizing already-normalized text is a
//     no-op, so a key never re-normalizes into a different key.
//  2. Normalization preserves meaning — when the original text parses, its
//     normal form parses to the deeply-equal AST (and when it does not
//     parse, neither does the normal form). Two statements sharing a cache
//     key therefore share a parse, never just a spelling.
//
// The seed corpus covers every statement class and the lexical edge cases
// (comments, embedded quotes, mixed case, semicolons, numeric spellings);
// the fuzzer mutates from there.
func FuzzNormalizeRoundTrip(f *testing.F) {
	seeds := []string{
		`SELECT * FROM car`,
		`select c.make, COUNT(*) from CAR c, owner O where C.ownerid = o.id AND c.make = 'Honda' GROUP BY c.make`,
		`SELECT d.age, o.salary FROM demographics d, owner o WHERE d.ownerid = o.id AND d.age BETWEEN 18 AND 30 AND o.city = 'Ottawa' LIMIT 500`,
		`SELECT DISTINCT make FROM car WHERE model IN ('Civic', 'Accord') ORDER BY make DESC`,
		`SELECT name FROM owner WHERE id IN (SELECT ownerid FROM car WHERE make = 'Toyota')`,
		`SELECT * FROM car WHERE make = 'O''Brien'; -- trailing comment`,
		`SELECT	*
		 FROM car /* block
		 comment */ WHERE price > 10000.50;;`,
		`SELECT * FROM car WHERE price > 1`,
		`SELECT * FROM car WHERE price > 1.0`,
		`INSERT INTO car (id, make) VALUES (1, 'Kia'), (2, 'Mini')`,
		`UPDATE owner SET salary = 120000, city = 'Delta' WHERE id <> 7`,
		`DELETE FROM accidents WHERE damage >= 5000`,
		`CREATE TABLE pets (id INT, name STRING, weight FLOAT)`,
		`CREATE INDEX ix_pets_name ON pets (name)`,
		`EXPLAIN ANALYZE SELECT * FROM car WHERE make != 'Bmw'`,
		`SHOW QUERIES LAST 10`,
		`SHOW ACCURACY FOR car`,
		`not sql at all`,
		``,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		norm, err := Normalize(sql)
		checkLexedOnce(t, sql, norm, err)
		if err != nil {
			// Unlexable input: the parser must agree it is garbage.
			if _, perr := Parse(sql); perr == nil {
				t.Fatalf("Normalize rejected %q but Parse accepted it", sql)
			}
			return
		}

		again, err := Normalize(norm)
		if err != nil {
			t.Fatalf("normal form %q (of %q) does not re-normalize: %v", norm, sql, err)
		}
		if again != norm {
			t.Fatalf("Normalize is not a fixed point:\n  input: %q\n  first: %q\n  again: %q", sql, norm, again)
		}

		ast, perr := Parse(sql)
		nast, nperr := Parse(norm)
		if (perr == nil) != (nperr == nil) {
			t.Fatalf("parseability changed across normalization:\n  input: %q (err %v)\n  normal: %q (err %v)",
				sql, perr, norm, nperr)
		}
		if perr != nil {
			return
		}
		if !reflect.DeepEqual(ast, nast) {
			t.Fatalf("ASTs diverged across normalization:\n  input: %q -> %#v\n  normal: %q -> %#v",
				sql, ast, norm, nast)
		}
	})
}

// checkLexedOnce holds the lexed-once path to the streaming one on sql,
// whose Normalize returned norm, nerr: LexSelect takes exactly the texts
// that lex and start with the keyword SELECT, its key is Normalize's byte for
// byte, and its parse is Parse's — the same AST, or the same error.
func checkLexedOnce(t *testing.T, sql, norm string, nerr error) {
	t.Helper()
	var l Lexed
	key, ok := l.LexSelect(sql)
	if ok != (nerr == nil && strings.HasPrefix(norm, "SELECT")) {
		t.Fatalf("%q: LexSelect %v, Normalize %q (%v)", sql, ok, norm, nerr)
	} else if !ok {
		return
	}
	if key != norm {
		t.Fatalf("%q: key from the tokens %q, Normalize %q", sql, key, norm)
	}
	ast, err := l.Parse()
	want, werr := Parse(sql)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(ast, want) {
		t.Fatalf("%q: parse of the tokens %#v (%v), Parse %#v (%v)", sql, ast, err, want, werr)
	}
}
