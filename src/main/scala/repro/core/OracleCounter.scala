package repro.core

/** Counter of influence-oracle evaluations.
  *
  * The paper's efficiency metric is the *number of oracle calls* — evaluations
  * of f_t or of a marginal gain δ_S(v) — because an oracle call is the dominant
  * cost and the count is independent of hardware and of serial/parallel
  * implementation (§V-C). Every algorithm in this repo threads one of these
  * through its f evaluations.
  *
  * The rule: count one call for every evaluation the algorithm makes, however
  * the answer is obtained — by a search, by a count, by knowing it (a covered
  * node's gain is 0, a sink's f({v}) is 1), or by sharing one computation
  * among several sieves or instances that each make that evaluation. What the
  * algorithm itself decides not to evaluate (a threshold above f({v}), say)
  * counts nothing. Exact set algebra on values already held is not an
  * evaluation.
  */
final class OracleCounter {
  private var n: Long = 0L
  def inc(): Unit = n += 1
  def add(calls: Long): Unit = n += calls
  def calls: Long = n
}
