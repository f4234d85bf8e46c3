"""Table 1: the four requirements for effective false sharing repair.

Synthesized from the Figure 7 and Figure 9 grids: compatibility,
consistency preservation, overhead without contention, and percentage
of the manual-fix speedup.
"""

from repro.eval import table1

from conftest import publish


def test_table1_requirements_matrix(figure7_result, figure9_result):
    result = table1(figure7_result=figure7_result,
                    figure9_result=figure9_result)
    publish(result)
    data = result.data

    # Sheriff: incompatible with most of the suite; TMI/LASER: compatible
    compatible = int(data["sheriff"]["compatible"].split("/")[0])
    assert compatible <= 15
    assert data["tmi"]["compatible"] == "yes"

    # TMI's overhead without contention is low
    assert data["tmi"]["overhead_pct"] < 8

    # TMI captures far more of the manual speedup than LASER
    assert data["tmi"]["pct_manual"] > data["laser"]["pct_manual"]
    assert data["tmi"]["pct_manual"] > 60

    # consistency column (static truth of the designs)
    assert data["sheriff"]["memory_consistency"] is False
    assert data["tmi"]["memory_consistency"] is True
