// Suppression-extent fixture: an own-line allow must cover the ENTIRE
// following statement, not just the next physical line. The violations here
// sit two+ lines below their allow comment; before the statement-extent fix
// they escaped suppression.

#include <cstdint>
#include <cstdlib>

template <typename F>
void parallel_for(int64_t, int64_t, int64_t, F&&);

int multiline_call_chain() {
  int64_t total = 0;
  // The R10 hit is on the lambda body line, three lines below the
  // parallel_for line — the own-line allow covers the whole statement.
  // rp-lint: allow(R10) fixture: whole-statement coverage is the point of this test
  parallel_for(0,
               1000000,
               1,
               [&total](int64_t i0, int64_t i1) { total += i1 - i0; });
  return static_cast<int>(total);
}

int own_line_does_not_leak() {
  // The allow below covers only the (multi-line) statement that follows it;
  // the rand() on the line after that statement must still fire.
  // rp-lint: allow(R1) fixture: covers only the next statement
  int x =
      static_cast<int>(0);
  int y = rand();  // line 30: outside the allow's extent
  return x + y;
}
