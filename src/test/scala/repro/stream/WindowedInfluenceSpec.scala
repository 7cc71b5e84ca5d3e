package repro.stream

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.tdn.TimedEdge

class WindowedInfluenceSpec extends SparkSpec {
  import spark.implicits._

  private lazy val interactions =
    Seq(
      (0, 10, 1), (0, 10, 2), (0, 11, 3),
      (1, 12, 1), (2, 10, 4), (2, 13, 4),
      (3, 10, 5), (4, 14, 2), (4, 15, 2), (4, 16, 2),
    ).toDF("src", "dst", "ts")

  test("aliveAt keeps exactly the interactions with ts in (t-w, t]") {
    val alive = WindowedInfluence.aliveAt(interactions, t = 3, w = 2)
    assert(alive.select("ts").collect().map(_.getInt(0)).forall(t => t == 2 || t == 3))
    assert(alive.count() == 5)
  }

  test("directInfluence counts distinct influencees per influencer") {
    val di = WindowedInfluence
      .directInfluence(interactions, t = 4, w = 5)
      .collect()
      .map(r => r.getInt(0) -> r.getLong(1))
      .toMap
    assert(di(0) == 2) // dst 10, 11 (10 twice)
    assert(di(4) == 3)
    assert(di(2) == 2)
  }

  test("directInfluence matches DuckDB") {
    Oracle.assertEquivalent(
      WindowedInfluence.directInfluence(interactions, t = 4, w = 3),
      "SELECT src, count(DISTINCT dst) AS influence FROM interactions " +
        "WHERE CAST(ts AS INT) > 1 AND CAST(ts AS INT) <= 4 GROUP BY src",
      "interactions" -> interactions,
    )
  }

  test("topK returns the k most directly-influential sources") {
    val top = WindowedInfluence.topK(interactions, t = 5, w = 10, k = 2).collect()
    assert(top.map(_.getInt(0)).toSeq == Seq(4, 0))
  }

  test("tumblingSeries aggregates per window and matches DuckDB") {
    val series = WindowedInfluence.tumblingSeries(interactions, w = 2)
    Oracle.assertEquivalent(
      series,
      "SELECT CAST(ts AS INT) - (CAST(ts AS INT) % 2) AS window_start, src, " +
        "count(DISTINCT dst) AS influence FROM interactions GROUP BY 1, src",
      "interactions" -> interactions,
    )
  }

  test("windowed direct influence equals TDN spread on bipartite streams (W-lifetime)") {
    // On a bipartite stream (sources never receive edges), f({s}) = 1 + direct
    // influence, so the SQL path and the graph path must agree.
    val w    = 3
    val t    = 6
    val spec = InteractionStreams.brightkite
    val df   = InteractionStreams.prefix(spark, spec, t + 1).cache()

    // Graph path: sliding-window TDN with fixed lifetime w queried at time t;
    // exact best singleton spread on the alive graph.
    val tdn  = new repro.tdn.Tdn
    val byTs = df.collect().map(r => (r.getInt(0), TimedEdge(r.getInt(1), r.getInt(2), w)))
      .groupBy(_._1)
    (0 to t).foreach { step =>
      tdn.add(byTs.getOrElse(step, Array.empty).map(_._2).toSeq)
      if (step < t) tdn.advance()
    }
    val g         = tdn.toDigraph(spec.universe)
    val bestGraph = g.nodeArray.map(v => g.spreadOf(Seq(v))).max

    // SQL path: top-1 direct influence + 1 (the source itself).
    val bestSql = WindowedInfluence.topK(df, t, w, 1).collect()(0).getLong(1) + 1
    assert(bestGraph == bestSql, s"graph=$bestGraph sql=$bestSql")
  }
}
