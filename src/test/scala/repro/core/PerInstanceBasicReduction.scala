package repro.core

import scala.collection.mutable
import repro.tdn.{Tdn, TimedEdge}

/** BasicReduction with one SieveADN per instance: the design
  * [[BasicReduction]]'s runs replaced, kept as the reference of
  * [[BasicReductionRunsSpec]]. It holds the L instances A_1..A_L at cutoffs
  * t + 1..t + L, feeds each instance an arrival can reach, and counts every
  * instance's own oracle calls.
  */
final class PerInstanceBasicReduction(
    val k: Int,
    val eps: Double,
    val maxLifetime: Int,
    val universe: Int,
) extends StreamingInfluenceAlgo {
  require(maxLifetime >= 1, "L must be >= 1")

  private val counter = new OracleCounter
  private val tdn     = new Tdn
  private val graph   = tdn.toDigraph(universe)
  // Head (index 0) is A_1.
  private val instances = mutable.ArrayDeque.tabulate(maxLifetime)(i => newInstance(i + 1))

  private def newInstance(cutoff: Int): SieveAdn = new SieveAdn(k, eps, counter, graph, cutoff)

  override def name: String = "PerInstanceBasicReduction"

  /** Instance A_i (1-based), exposed for invariant tests. */
  def instance(i: Int): SieveAdn = instances(i - 1)

  override def observe(batch: Seq[TimedEdge]): Unit = {
    // Alg. 2 line 3: A_i takes the new edges with lifetime ≥ i, i.e. expiry
    // reaching its cutoff.
    val capped   = batch.map(e => if (e.lifetime > maxLifetime) e.copy(lifetime = maxLifetime) else e)
    tdn.check(capped)
    val arrivals = SieveAdn.addTo(tdn, graph, capped)
    if (arrivals.isEmpty) return
    // A_i sees an arrival iff before < t + i ≤ after, so only the instances
    // with cutoff in (min before, max after] can see any: feed just those.
    var lo = Int.MaxValue
    var hi = Int.MinValue
    var a  = 0
    while (a < arrivals.length) {
      lo = math.min(lo, arrivals(a).before)
      hi = math.max(hi, arrivals(a).after)
      a += 1
    }
    val first = instances.head.cutoff.toLong // instances(j) has cutoff first + j
    var j     = math.max(0L, lo + 1L - first).toInt
    val last  = math.min(instances.length - 1L, hi - first).toInt
    while (j <= last) { instances(j).feed(arrivals); j += 1 }
  }

  override def querySolution: Seq[Int] = instances.head.solution

  /** Value of the head instance's solution, g_t(1). */
  def currentValue: Int = instances.head.currentValue

  override def endStep(): Unit = {
    instances.removeHead() // terminate A_1
    tdn.advance()
    instances.append(newInstance(tdn.now + maxLifetime)) // create A_L for t+1
  }

  override def oracleCalls: Long = counter.calls
}
