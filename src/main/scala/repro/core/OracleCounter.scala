package repro.core

/** Counter of influence-oracle evaluations.
  *
  * The paper's efficiency metric is the *number of oracle calls* — evaluations
  * of f_t or of a marginal gain δ_S(v) — because an oracle call is the dominant
  * cost and the count is independent of hardware and of serial/parallel
  * implementation (§V-C). Every algorithm in this repo threads one of these
  * through its f evaluations; reads of a value cached since the last graph
  * change are free, recomputations count one call each.
  */
final class OracleCounter {
  private var n: Long = 0L
  def inc(): Unit = n += 1
  def add(calls: Long): Unit = n += calls
  def calls: Long = n
}
