package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/value"
)

// TestRandomizedQueriesMatchReference cross-checks the full engine pipeline
// (parser → QGM → JITS → optimizer → executor) against a brute-force
// reference evaluation for hundreds of randomized filter/join/aggregate
// queries, with and without JITS. Whatever plan the optimizer picks, the
// result multiset must equal the reference.
func TestRandomizedQueriesMatchReference(t *testing.T) {
	for _, jits := range []bool{false, true} {
		name := "noJITS"
		cfg := Config{}
		if jits {
			name = "JITS"
			cfg.JITS = core.DefaultConfig()
			cfg.JITS.SampleSize = 200
		}
		t.Run(name, func(t *testing.T) {
			e := seedEngine(t, cfg)
			rng := rand.New(rand.NewSource(7))

			// Snapshot reference data.
			type carRow struct {
				id, ownerid, year int64
				make_, model      string
				price             float64
			}
			type ownerRow struct {
				id            int64
				city, country string
				salary        float64
			}
			var cars []carRow
			var owners []ownerRow
			carT, _ := e.DB().Table("car")
			carT.Snapshot().Scan(func(_ int, r []value.Datum) bool {
				cars = append(cars, carRow{
					id: r[0].Int(), ownerid: r[1].Int(), make_: r[2].Str(),
					model: r[3].Str(), year: r[4].Int(), price: r[5].Float(),
				})
				return true
			})
			ownerT, _ := e.DB().Table("owner")
			ownerT.Snapshot().Scan(func(_ int, r []value.Datum) bool {
				owners = append(owners, ownerRow{
					id: r[0].Int(), city: r[2].Str(), country: r[3].Str(), salary: r[4].Float(),
				})
				return true
			})
			ownerByID := map[int64]ownerRow{}
			for _, o := range owners {
				ownerByID[o.id] = o
			}

			makes := []string{"Toyota", "Honda", "BMW", "Lada"}
			models := []string{"Camry", "Corolla", "Civic", "X5", "Yaris"}
			cities := []string{"Ottawa", "Toronto", "Boston", "Atlantis"}

			for i := 0; i < 150; i++ {
				mk := makes[rng.Intn(len(makes))]
				md := models[rng.Intn(len(models))]
				city := cities[rng.Intn(len(cities))]
				yr := 1990 + rng.Intn(22)

				var sql string
				var want []int64
				switch rng.Intn(4) {
				case 0: // single-table filter
					sql = fmt.Sprintf(`SELECT id FROM car WHERE make = '%s' AND year > %d`, mk, yr)
					for _, c := range cars {
						if c.make_ == mk && c.year > int64(yr) {
							want = append(want, c.id)
						}
					}
				case 1: // range + IN
					sql = fmt.Sprintf(`SELECT id FROM car WHERE year BETWEEN %d AND %d AND model IN ('%s', '%s')`, yr, yr+5, md, models[0])
					for _, c := range cars {
						if c.year >= int64(yr) && c.year <= int64(yr)+5 && (c.model == md || c.model == models[0]) {
							want = append(want, c.id)
						}
					}
				case 2: // join
					sql = fmt.Sprintf(`SELECT c.id FROM car c, owner o WHERE c.ownerid = o.id AND o.city = '%s' AND c.make = '%s'`, city, mk)
					for _, c := range cars {
						if o, ok := ownerByID[c.ownerid]; ok && o.city == city && c.make_ == mk {
							want = append(want, c.id)
						}
					}
				default: // subquery semi-join
					sql = fmt.Sprintf(`SELECT id FROM car WHERE make = '%s' AND ownerid IN (SELECT id FROM owner WHERE city = '%s')`, mk, city)
					for _, c := range cars {
						if o, ok := ownerByID[c.ownerid]; ok && o.city == city && c.make_ == mk {
							want = append(want, c.id)
						}
					}
				}

				res, err := e.Exec(sql)
				if err != nil {
					t.Fatalf("query %d %q: %v", i, sql, err)
				}
				got := make([]int64, 0, len(res.Rows))
				for _, r := range res.Rows {
					got = append(got, r[0].Int())
				}
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
				if len(got) != len(want) {
					t.Fatalf("query %d %q: got %d rows, want %d\nplan:\n%s", i, sql, len(got), len(want), res.Plan)
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("query %d %q: row %d = %d, want %d", i, sql, j, got[j], want[j])
					}
				}
			}
		})
	}
}

// TestRandomizedAggregatesMatchReference cross-checks COUNT/SUM/AVG/MIN/MAX
// with GROUP BY against a reference computation.
func TestRandomizedAggregatesMatchReference(t *testing.T) {
	e := seedEngine(t, Config{JITS: core.DefaultConfig()})
	rng := rand.New(rand.NewSource(11))

	type agg struct {
		count    int64
		sum      float64
		min, max int64
		seenYear bool
	}
	carT, _ := e.DB().Table("car")

	for i := 0; i < 40; i++ {
		yr := 1990 + rng.Intn(20)
		sql := fmt.Sprintf(`SELECT make, COUNT(*), SUM(price), MIN(year), MAX(year) FROM car WHERE year >= %d GROUP BY make ORDER BY make`, yr)

		ref := map[string]*agg{}
		carT.Snapshot().Scan(func(_ int, r []value.Datum) bool {
			if r[4].Int() < int64(yr) {
				return true
			}
			mk := r[2].Str()
			a, ok := ref[mk]
			if !ok {
				a = &agg{min: 1 << 62, max: -1}
				ref[mk] = a
			}
			a.count++
			a.sum += r[5].Float()
			if y := r[4].Int(); y < a.min {
				a.min = y
			}
			if y := r[4].Int(); y > a.max {
				a.max = y
			}
			a.seenYear = true
			return true
		})

		res, err := e.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(ref) {
			t.Fatalf("query %q: %d groups, want %d", sql, len(res.Rows), len(ref))
		}
		for _, row := range res.Rows {
			a := ref[row[0].Str()]
			if a == nil {
				t.Fatalf("unexpected group %v", row[0])
			}
			if row[1].Int() != a.count {
				t.Errorf("count(%v) = %v, want %d", row[0], row[1], a.count)
			}
			gotSum, _ := row[2].AsFloat()
			if diff := gotSum - a.sum; diff > 1 || diff < -1 {
				t.Errorf("sum(%v) = %v, want %v", row[0], gotSum, a.sum)
			}
			if row[3].Int() != a.min || row[4].Int() != a.max {
				t.Errorf("min/max(%v) = %v/%v, want %d/%d", row[0], row[3], row[4], a.min, a.max)
			}
		}
	}
}

// TestGoldenParallelExplain pins the exact EXPLAIN text for representative
// plan shapes at parallelism 1 and 4. Parallel plans carry a Gather header
// naming the worker count and indent the operator tree one level; the tree
// itself — access paths, join methods, estimates, costs — must be
// byte-identical to the serial rendering, because the degree of parallelism
// never feeds back into optimization. The two renderings come from two
// engines, built at each degree.
func TestGoldenParallelExplain(t *testing.T) {
	serial, parallel := seedEngine(t, Config{}), seedEngine(t, Config{Parallelism: 4})
	cases := []struct {
		sql      string
		serial   string
		parallel string
	}{
		{
			sql:    `EXPLAIN SELECT id FROM car WHERE make = 'Toyota'`,
			serial: "TableScan car as car filter[make = 'Toyota'] rows=40.0 cost=1008\n",
			parallel: "Gather(workers=4)\n" +
				"  TableScan car as car filter[make = 'Toyota'] rows=40.0 cost=1008\n",
		},
		{
			sql: `EXPLAIN SELECT c.id, o.city FROM car c, owner o WHERE c.ownerid = o.id AND o.city = 'Ottawa'`,
			serial: "IndexNLJoin on[[1].id = [0].ownerid] rows=40.0 cost=2416\n" +
				"  TableScan owner as o filter[city = 'Ottawa'] rows=40.0 cost=1008\n" +
				"  TableScan car as c rows=1000.0 cost=1200\n",
			parallel: "Gather(workers=4)\n" +
				"  IndexNLJoin on[[1].id = [0].ownerid] rows=40.0 cost=2416\n" +
				"    TableScan owner as o filter[city = 'Ottawa'] rows=40.0 cost=1008\n" +
				"    TableScan car as c rows=1000.0 cost=1200\n",
		},
		{
			sql: `EXPLAIN SELECT COUNT(*) FROM car c, owner o WHERE c.price = o.salary`,
			serial: "HashJoin on[[1].salary = [0].price] rows=1000.0 cost=5100\n" +
				"  TableScan owner as o rows=1000.0 cost=1200\n" +
				"  TableScan car as c rows=1000.0 cost=1200\n",
			parallel: "Gather(workers=4)\n" +
				"  HashJoin on[[1].salary = [0].price] rows=1000.0 cost=5100\n" +
				"    TableScan owner as o rows=1000.0 cost=1200\n" +
				"    TableScan car as c rows=1000.0 cost=1200\n",
		},
		{
			sql:    `EXPLAIN SELECT make, COUNT(*) FROM car WHERE year > 1995 GROUP BY make`,
			serial: "TableScan car as car filter[year > 1995] rows=333.3 cost=1067\n",
			parallel: "Gather(workers=4)\n" +
				"  TableScan car as car filter[year > 1995] rows=333.3 cost=1067\n",
		},
	}
	for _, c := range cases {
		for _, mode := range []struct {
			e    *Engine
			dop  int
			want string
		}{{serial, 1, c.serial}, {parallel, 4, c.parallel}} {
			res, err := mode.e.Exec(c.sql)
			if err != nil {
				t.Fatalf("%q at dop %d: %v", c.sql, mode.dop, err)
			}
			if res.Plan != mode.want {
				t.Errorf("%q at dop %d:\ngot:\n%s\nwant:\n%s", c.sql, mode.dop, res.Plan, mode.want)
			}
		}
	}
}
