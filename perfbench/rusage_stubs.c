/* getrusage(RUSAGE_CHILDREN).ru_maxrss for the end-to-end benchmark:
   the largest peak resident set, in kB, among the children that have
   been waited for. OCaml's Unix library does not expose it. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value e2e_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
