package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Database is a named collection of tables — the engine's "instance".
type Database struct {
	mu        sync.RWMutex
	tables    map[string]*Table
	chunkSize int // fixed at NewDatabase
}

// NewDatabase returns an empty database whose tables hold chunkSize rows a
// chunk; values < 1 select DefaultChunkSize. Benchmarks sweep it; production
// leaves it at the default.
func NewDatabase(chunkSize int) *Database {
	return &Database{tables: make(map[string]*Table), chunkSize: chunkSize}
}

// CreateTable registers a new empty table.
func (db *Database) CreateTable(name string, schema *Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := NewTableWithChunkSize(name, schema, db.chunkSize)
	db.tables[name] = t
	return t, nil
}

// DropTable removes a table; dropping a missing table is an error.
func (db *Database) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; !exists {
		return fmt.Errorf("storage: table %q does not exist", name)
	}
	delete(db.tables, name)
	return nil
}

// Table looks up a table by name.
func (db *Database) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// TableNames returns all table names in sorted order.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
