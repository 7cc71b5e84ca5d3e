package repro.core

/** SieveADN with one sieve per threshold exponent: the design [[SieveAdn]]'s
  * runs replaced, kept as the reference of [[SieveAdnRunsSpec]]. It holds one
  * array of sieves for the window's exponents plus the exponent of slot 0,
  * sweeps every sieve, and counts every gain per sieve. Candidates, Δ, the
  * window, the incremental sweep and the oracle-call ledger are as in
  * [[SieveAdn]]'s class doc.
  */
final class PerSieveAdn(
    val k: Int,
    val eps: Double,
    val counter: OracleCounter,
    val graph: Digraph,
    val cutoff: Int,
) {
  import PerSieveAdn.Sieve

  private var deltaMax: Int = 0
  private var sieves        = Array.empty[Sieve] // sieves(j) is S_θi for exponent i = base + j
  private var base          = 0
  private val logBase       = math.log1p(eps)

  private def thetaOf(i: Int): Double = math.pow(1.0 + eps, i) / (2.0 * k)

  private def floorExp(x: Double): Int = math.floor(math.log(x) / logBase + 1e-9).toInt

  private def refreshThresholds(): Unit = {
    if (deltaMax <= 0) return
    val lo = math.ceil(math.log(deltaMax.toDouble) / logBase - 1e-9).toInt
    val hi = floorExp(2.0 * k * deltaMax)
    if (lo != base || hi - lo + 1 != sieves.length) {
      val slid = new Array[Sieve](hi - lo + 1)
      var j    = 0
      while (j < slid.length) {
        val o = lo + j - base
        slid(j) = if (o >= 0 && o < sieves.length) sieves(o) else new Sieve(k)
        j += 1
      }
      sieves = slid
      base = lo
    }
  }

  private def candidates(us: Array[Int], vs: Array[Int]): Array[Int] =
    (graph.reverseReachOf(us, cutoff) ++ vs).distinct.sorted

  /** Add a batch to a stand-alone instance's own graph and update. */
  def process(batch: Seq[(Int, Int)]): Unit = {
    val inserted = batch.filter { case (u, v) => graph.addEdge(u, v) }
    update(inserted.map(_._1).toArray, inserted.map(_._2).toArray)
  }

  def update(us: Array[Int], vs: Array[Int]): Unit = {
    if (us.isEmpty) return
    val cand      = candidates(us, vs)
    val candReach = cand.map { v =>
      counter.inc()
      val r = graph.reachOf(v, cutoff)
      if (r.length > deltaMax) deltaMax = r.length
      r
    }
    refreshThresholds()

    val vReach = vs.map(v => candReach(java.util.Arrays.binarySearch(cand, v)))
    sieves.foreach { s =>
      if (s.size > 0) us.indices.foreach { e =>
        if (s.has(us(e)) && !s.has(vs(e))) s.add(vReach(e))
      }
    }

    cand.indices.foreach { c =>
      val v   = cand(c)
      val rv  = candReach(c)
      val top = math.min(floorExp(2.0 * k * rv.length) - base, sieves.length - 1)
      (0 to top).foreach { j =>
        val s = sieves(j)
        if (s.size < k && !s.contains(v)) {
          counter.inc()
          if (s.gainMeets(v, rv, math.ceil(thetaOf(base + j)).toInt)) s.accept(v, rv)
        }
      }
    }
  }

  def currentValue: Int = if (sieves.isEmpty) 0 else sieves.map(_.value).max

  def solution: Seq[Int] = if (sieves.isEmpty) Nil else sieves.maxBy(_.value).seeds

  def thresholdCount: Int = sieves.length

  def delta: Int = deltaMax

  def seedsByExponent: Seq[(Int, Seq[Int])] = sieves.indices.map(j => (base + j, sieves(j).seeds))

  def copyInstance(cutoff: Int): PerSieveAdn = {
    val c = new PerSieveAdn(k, eps, counter, graph, cutoff)
    c.deltaMax = deltaMax
    c.sieves = sieves.map(_.copySieve())
    c.base = base
    c
  }
}

object PerSieveAdn {

  final class Sieve(k: Int) {
    val members = new Array[Int](k)
    var size    = 0
    var words   = Array.emptyLongArray
    var value   = 0

    def seeds: Seq[Int] = members.take(size).toSeq

    def contains(v: Int): Boolean = members.take(size).contains(v)

    def has(v: Int): Boolean = Digraph.has(words, v)

    /** Whether δ_S(v) = |r \ reach(S)| ≥ need, for v's reach-set r. */
    def gainMeets(v: Int, r: Array[Int], need: Int): Boolean =
      if (has(v)) need <= 0 else WordSets.countMissing(r, words) >= need

    def add(r: Array[Int]): Unit = {
      words = Digraph.fit(words, r)
      value += Digraph.addAll(r, words)
    }

    def accept(v: Int, r: Array[Int]): Unit = {
      members(size) = v
      size += 1
      add(r)
    }

    def copySieve(): Sieve = {
      val s = new Sieve(members.length)
      System.arraycopy(members, 0, s.members, 0, size)
      s.size = size
      s.words = words.clone()
      s.value = value
      s
    }
  }
}
