package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments

import scala.collection.immutable.ListMap

/** One paper exhibit (Table I or Figs. 7–14), run at its protocol in
  * `Experiments` and printed as the table its bench prints.
  *
  * Usage: spark-submit --class repro.jobs.RunExhibit <jar> <table-i|fig7|fig8to10|fig11|fig12|fig13to14>
  */
object RunExhibit {

  /** Each exhibit's printed table, by name. */
  val exhibits: ListMap[String, SparkSession => Seq[String]] = ListMap(
    "table-i"   -> (s => Experiments.tableILines(Experiments.tableI(s))),
    "fig7"      -> (s => Experiments.fig7Lines(Experiments.fig7(s))),
    "fig8to10"  -> (s => Experiments.fig8to10Lines(Experiments.fig8to10Rows(s))),
    "fig11"     -> (s => Experiments.fig11Lines(Experiments.fig11(s))),
    "fig12"     -> (s => Experiments.fig12Lines(Experiments.fig12(s))),
    "fig13to14" -> (s => Experiments.fig13to14Lines(Experiments.fig13to14(s))),
  )

  def exhibit(name: String): SparkSession => Seq[String] =
    exhibits.getOrElse(name, throw new IllegalArgumentException(
      s"unknown exhibit '$name'; expected one of: ${exhibits.keys.mkString(", ")}"))

  def main(args: Array[String]): Unit = {
    require(args.length == 1, s"usage: RunExhibit <${exhibits.keys.mkString("|")}>")
    val run   = exhibit(args(0))
    val spark = Jobs.session(s"RunExhibit ${args(0)}")
    try run(spark).foreach(println)
    finally spark.stop()
  }
}
