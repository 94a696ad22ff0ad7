package repro.jobs

import repro.dist.SparkDtlp
import repro.roadnet.TrafficModel

/** Apply traffic-evolution rounds to a freshly built DTLP and report the
  * per-round maintenance time, split into routing, the Spark update job and
  * the MBD fold, with the update's work counts (Figures 19–23 workload).
  *
  * Usage: spark-submit --class repro.jobs.UpdateDtlpJob <jar>
  *        [network] [rounds] [alpha] [tau] [z] [xi]
  */
object UpdateDtlpJob {
  def main(args: Array[String]): Unit = {
    val netName = args.lift(0).getOrElse("NY-lite")
    val rounds = args.lift(1).map(_.toInt).getOrElse(5)
    val alpha = args.lift(2).map(_.toDouble).getOrElse(0.35)
    val tau = args.lift(3).map(_.toDouble).getOrElse(0.30)
    val spark = JobUtil.session(s"update-dtlp-$netName")
    val (name, g, defaultZ) = JobUtil.network(netName)
    val z = args.lift(4).map(_.toInt).getOrElse(defaultZ)
    val xi = args.lift(5).map(_.toInt).getOrElse(8)
    val dtlp = SparkDtlp.build(spark, g, z, xi)
    println(s"network=$name rounds=$rounds alpha=$alpha tau=$tau z=$z xi=$xi")
    (1 to rounds).foreach { r =>
      val batch = TrafficModel.snapshot(dtlp.partitioning.graph.snapshot(), alpha, tau, r)
      val rep = dtlp.update(batch)
      println(f"round=$r updates=${batch.size} maintenanceSeconds=${rep.totalNs / 1e9}%.3f " +
        f"routeSeconds=${rep.routeNs / 1e9}%.3f sparkJobSeconds=${rep.subgraphNs / 1e9}%.3f foldSeconds=${rep.foldNs / 1e9}%.3f " +
        s"touchedSubgraphs=${rep.touchedSubgraphs} epBumps=${rep.epBumps} exactRefreshDijkstras=${rep.exactRefreshDijkstras} " +
        s"skeletonWeightsChanged=${rep.skeletonWeightsChanged}")
    }
    spark.stop()
  }
}
