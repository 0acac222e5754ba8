// Fixture: TS001 — retired Table accessors, banned everywhere.
// The view API (Column()/TextAt()/ValueAt()/IsNull()) replaced the
// reference-returning surface; the old spellings must not come back.
namespace fixture {

struct FakeTable {
  int cell(int, int) const { return 0; }
  const char* CellText(int, int) const { return ""; }
};

int Bad(const FakeTable& t, const FakeTable* p) {
  int a = t.cell(0, 0);  // expect: TS001
  int b = p->cell(1, 2);  // expect: TS001
  const char* c = t.CellText(0, 0);  // expect: TS001
  const char* d = p -> CellText(3, 4);  // expect: TS001
  return a + b + (c != nullptr) + (d != nullptr);
}

int Suppressed(const FakeTable& t) {
  // Deliberate use, suppressed on the specific line:
  return t.cell(0, 0);  // lint: allow(TS001)
}

int FalsePositives(const FakeTable& t) {
  // Comments and strings mentioning t.cell(0, 0) or ->CellText(r, c) are
  // not findings; neither are free functions or declarations of the name.
  const char* s = "t.cell(0, 0) and p->CellText(1, 2) in a string";
  int cell(int);        // declaration, not member access
  int CellText(int);    // declaration, not member access
  int stem_cell(int);   // suffix match must not fire
  (void)t;
  return s != nullptr ? 1 : 0;
}

}  // namespace fixture
