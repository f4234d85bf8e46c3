"""Table 2: semantics of concurrent conflicting accesses between code
regions, and where PTSB use is permitted."""

from repro.core.consistency import ASM, ATOMIC, REGULAR, table2_semantics
from repro.eval import table2

from conftest import publish


def test_table2_consistency_matrix():
    result = table2()
    publish(result)

    # the two shaded (PTSB-permitted) cells of the paper's Table 2
    assert table2_semantics(REGULAR, REGULAR) == ("undefined", True)
    assert table2_semantics(REGULAR, ATOMIC) == ("undefined", True)
    # everything involving asm or atomic/atomic forbids the PTSB
    assert table2_semantics(ATOMIC, ATOMIC)[1] is False
    assert table2_semantics(REGULAR, ASM)[1] is False
    assert table2_semantics(ATOMIC, ASM)[1] is False
    assert table2_semantics(ASM, ASM) == ("TSO", False)
