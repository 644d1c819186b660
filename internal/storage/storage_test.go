package storage

import "testing"

func TestAddColumnChecksLength(t *testing.T) {
	tab := NewTable("t", 3)
	if err := tab.AddColumn("a", []int64{1, 2, 3}); err != nil {
		t.Fatalf("matching column rejected: %v", err)
	}
	for _, vals := range [][]int64{nil, {1, 2}, {1, 2, 3, 4}} {
		if err := tab.AddColumn("b", vals); err == nil {
			t.Fatalf("column of %d values accepted into a 3-row table", len(vals))
		}
	}
	if _, ok := tab.Cols["b"]; ok {
		t.Fatal("a rejected column was attached anyway")
	}
}

func TestUnknownNamesAreErrors(t *testing.T) {
	tab := NewTable("t", 1)
	if err := tab.AddColumn("a", []int64{7}); err != nil {
		t.Fatal(err)
	}
	if got, err := tab.Column("a"); err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("Column(a) = %v, %v", got, err)
	}
	if got, err := tab.Column("missing"); err == nil || got != nil {
		t.Fatalf("Column(missing) = %v, %v; want nil and an error", got, err)
	}

	db := NewDB()
	db.Add(tab)
	if got, err := db.Table("t"); err != nil || got != tab {
		t.Fatalf("Table(t) = %v, %v", got, err)
	}
	if got, err := db.Table("missing"); err == nil || got != nil {
		t.Fatalf("Table(missing) = %v, %v; want nil and an error", got, err)
	}
}

func TestAddReplacesTableOfSameName(t *testing.T) {
	db := NewDB()
	db.Add(NewTable("t", 1))
	second := NewTable("t", 2)
	db.Add(second)
	if len(db.Tables) != 1 {
		t.Fatalf("%d tables after adding the same name twice, want 1", len(db.Tables))
	}
	if got, err := db.Table("t"); err != nil || got != second {
		t.Fatalf("Table(t) = %v, %v; want the table added last", got, err)
	}
}
