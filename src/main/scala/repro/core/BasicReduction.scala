package repro.core

import scala.collection.mutable
import repro.tdn.{Tdn, TimedEdge}

/** BasicReduction (Alg. 2): L SieveADN instances, where instance A_i processes
  * every arriving edge with lifetime ≥ i. After each step the head instance
  * (A_1, which by construction has processed exactly the alive edges of G_t)
  * produces the solution and is terminated; the rest shift left; a fresh
  * instance joins at the tail.
  *
  * The L instances share the tracker's one TDN graph: A_i at time t is the
  * cutoff t + i over it (see [[SieveAdn]]). Lifetimes above L are capped at L
  * before edges enter the TDN, since A_L is the last instance they reach.
  *
  * The instances are held as runs: a run is a maximal range of consecutive
  * cutoffs whose instances were fed the same updates, kept as one SieveADN
  * at the run's highest cutoff, in ascending order. Run j stands for the
  * cutoffs (cutoff of run j − 1, cutoff of run j], the head run's from t + 1.
  * Invariant: no alive edge has an expiry between a run's lowest and highest
  * cutoff, so every member views the same graph and the one SieveADN is each
  * member's exact state; equivalently, every alive edge's expiry is the
  * highest cutoff of a run. An arrival whose expiry rises from b to a is seen
  * by the cutoffs in (b, a]. If the pair was alive, a run already ends at b,
  * so only the run across a + 1 splits, its lower part taking a copy; then
  * every run in (b, a] is fed once. The oracle-call ledger still counts every
  * instance Alg. 2 runs: a run's update credits its calls once per member,
  * by [[OracleCounter]]'s rule.
  *
  * (1/2 − ε)-approximate (Theorem 4); time/space are L× SieveADN (Theorem 5) —
  * this is the paper's deliberately heavy baseline that HistApprox improves.
  */
final class BasicReduction(
    val k: Int,
    val eps: Double,
    val maxLifetime: Int,
    val universe: Int,
) extends StreamingInfluenceAlgo {
  require(maxLifetime >= 1, "L must be >= 1")

  private val counter = new OracleCounter
  private val tdn     = new Tdn
  private val graph   = tdn.toDigraph(universe)
  // Ascending by cutoff; the head run holds A_1.
  private val runs = mutable.ArrayDeque(newInstance(maxLifetime))

  private def newInstance(cutoff: Int): SieveAdn = new SieveAdn(k, eps, counter, graph, cutoff)

  override def name: String = "BasicReduction"

  /** The run holding instance A_i (1-based), exposed for invariant tests. */
  def instance(i: Int): SieveAdn = runs(runOf(tdn.now + i))

  /** Number of runs holding the L instances. */
  private[core] def runCount: Int = runs.length

  /** Index of the first run whose cutoff is at least c. */
  private def runOf(c: Int): Int = {
    var lo = 0
    var hi = runs.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (runs(mid).cutoff < c) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** The lowest cutoff of run j. */
  private def low(j: Int): Int = if (j == 0) tdn.now + 1 else runs(j - 1).cutoff + 1

  override def observe(batch: Seq[TimedEdge]): Unit = {
    // Alg. 2 line 3: A_i takes the new edges with lifetime ≥ i, i.e. expiry
    // reaching its cutoff.
    val capped   = batch.map(e => if (e.lifetime > maxLifetime) e.copy(lifetime = maxLifetime) else e)
    val arrivals = SieveAdn.addTo(tdn, graph, capped)
    // A_i sees an arrival iff before < t + i ≤ after. A run already ends at
    // before if the pair was alive, so splitting the run across after + 1
    // leaves each run holding only cutoffs that see the arrival or only
    // cutoffs that do not. The cutoffs up to after take a copy, which by the
    // invariant misses no edge. An arrival whose expiry did not rise is seen
    // by none.
    var lo = Int.MaxValue
    var hi = Int.MinValue
    var a  = 0
    while (a < arrivals.length) {
      val e = arrivals(a)
      if (e.after > e.before) {
        if (e.after < runs.last.cutoff) {
          val j = runOf(e.after + 1)
          if (low(j) <= e.after) runs.insert(j, runs(j).copyInstance(e.after))
        }
        lo = math.min(lo, e.before)
        hi = math.max(hi, e.after)
      }
      a += 1
    }
    // Only the runs with cutoffs in (min before, max after] can see any.
    var j = if (lo < hi) runOf(lo + 1) else runs.length
    while (j < runs.length && runs(j).cutoff <= hi) {
      val members = runs(j).cutoff - low(j) + 1
      val calls   = counter.calls
      runs(j).feed(arrivals)
      counter.add((counter.calls - calls) * (members - 1))
      j += 1
    }
  }

  override def querySolution: Seq[Int] = runs.head.solution

  /** Value of the head instance's solution, g_t(1). */
  def currentValue: Int = runs.head.currentValue

  override def endStep(): Unit = {
    if (runs.head.cutoff == tdn.now + 1) runs.removeHead() // terminate A_1
    tdn.advance()
    // Create A_L for t+1: it has seen nothing, as has a last run never fed.
    if (runs.nonEmpty && runs.last.delta == 0) runs.removeLast()
    runs.append(newInstance(tdn.now + maxLifetime))
  }

  override def oracleCalls: Long = counter.calls
}
